package shard

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/telemetry"
)

// Default tuning for the capacity aggregator. The steal interval is a
// compromise between reaction time (a hot shard's queue is visible for
// at most one interval before relief arrives) and overhead (each tick
// snapshots every shard's load counts).
const (
	// DefaultStealInterval is how often the capacity aggregator runs.
	DefaultStealInterval = 250 * time.Millisecond
	// DefaultStealThreshold is the queue-depth multiple of the cluster
	// mean beyond which a shard becomes a steal victim.
	DefaultStealThreshold = 2.0
	// DefaultMaxStealPerTick bounds jobs migrated per aggregator tick.
	DefaultMaxStealPerTick = 256
	// DefaultRebalanceGain damps ring-weight adjustments per tick.
	DefaultRebalanceGain = 0.25
	// DefaultBoundFactor is the bounded-load factor c: no shard accepts
	// more than c × (mean load) + 1 routed jobs while a less-loaded
	// successor exists.
	DefaultBoundFactor = 1.25
)

// StealConfig tunes cross-shard work stealing.
type StealConfig struct {
	// Enabled turns the stealing half of the aggregator on.
	Enabled bool
	// Interval is the aggregator tick period (default 250ms). Settable
	// because the sharded chaos test ticks at 100ms.
	Interval time.Duration
	// MaxPerTick bounds migrations per tick (default 256).
	MaxPerTick int
}

// RebalanceConfig tunes ring-weight rebalancing.
type RebalanceConfig struct {
	// Enabled turns weight rebalancing on.
	Enabled bool
}

// Config configures a Plane.
type Config struct {
	// BoundFactor is the bounded-load factor for routing; values <= 1
	// select plain consistent hashing. Zero means DefaultBoundFactor —
	// pass a negative value to explicitly disable bounded loads.
	BoundFactor float64
	// Steal configures cross-shard work stealing.
	Steal StealConfig
	// Rebalance configures ring-weight rebalancing.
	Rebalance RebalanceConfig
	// Membership configures the health checker and dynamic shard
	// membership (see MembershipConfig; disabled by default, leaving the
	// shard set fixed at construction).
	Membership MembershipConfig
}

// Plane is the load-balancer tier in front of N orchestrator shards.
// It routes invocations by consistent-hashing the function key onto the
// shard ring (optionally with bounded loads), and runs a poolmanager-
// style capacity aggregator that watches per-shard queue depth to
// rebalance ring weights and steal queued work from backlogged shards.
//
// Every scheduling decision the plane makes is a pure function of shard
// state at deterministic instants — routing reads pending counts, the
// aggregator runs on the shared runtime clock and visits shards in
// index order — so a seeded simulation through a Plane replays
// byte-identically.
type Plane struct {
	runtime core.Runtime
	shards  []*core.Orchestrator
	labels  []string
	cfg     Config
	// leaseTTL is the liveness lease a heartbeat grants: DeadAfter+1
	// ticks, so lease expiry and the missed-heartbeat count agree under a
	// steady tick.
	leaseTTL time.Duration

	reg        *telemetry.Registry
	queueDepth []*telemetry.Gauge
	weight     []*telemetry.Gauge
	stolenIn   []*telemetry.Counter
	stolenOut  []*telemetry.Counter

	mu   sync.Mutex
	ring *Ring
	// loads is route's snapshot of every shard's pending count, taken
	// under mu; loadOf (p.loadAt, bound once in NewPlane) is how the
	// ring's bounded walk reads it, so a routed submit allocates nothing.
	loads       []int
	loadOf      func(shard int) int
	members     []memberRecord
	stolenTotal int64
	tickArmed   bool
	cancelTick  func()
	closed      bool

	// tickHook runs at the end of every aggregator tick (the embedded
	// time-series store's scrape cadence); hookSet mirrors it so the
	// armTick fast path can check without taking mu.
	tickHook func(time.Duration)
	hookSet  atomic.Bool

	// The aggregator tick's scratch, so a tick allocates nothing. tickMu
	// keeps two ticks off it: in wall-clock mode a tick slower than the
	// interval overlaps the next one.
	tickMu      sync.Mutex
	tickQueued  []int
	tickPending []int
	tickWeights []float64
}

// SetTickHook registers fn to run at the end of every capacity-
// aggregator tick, passed the tick's clock offset — the sampling
// cadence the embedded time-series store (internal/tsdb) scrapes on.
// A hook arms the tick even when stealing, rebalancing, and membership
// are all disabled, but re-arm semantics are unchanged: ticks only
// self-schedule while work is in flight, so a hooked idle plane still
// lets a discrete-event simulation run out of events and terminate.
// Set the hook before submitting traffic; a nil fn clears it.
func (p *Plane) SetTickHook(fn func(now time.Duration)) {
	p.mu.Lock()
	p.tickHook = fn
	p.mu.Unlock()
	p.hookSet.Store(fn != nil)
}

// ShardStatus is one shard's capacity snapshot, as served by the
// gateway's /shards endpoint and faasctl shards.
type ShardStatus struct {
	// Index is the shard's position in the ring.
	Index int `json:"index"`
	// Label is the shard's name (spans and metrics carry it).
	Label string `json:"label"`
	// Workers is the shard's worker-partition size.
	Workers int `json:"workers"`
	// Pending counts queued + running jobs on the shard.
	Pending int `json:"pending"`
	// Queued counts jobs waiting in worker queues (not yet running).
	Queued int `json:"queued"`
	// Weight is the shard's current ring weight.
	Weight float64 `json:"weight"`
	// StolenIn counts jobs this shard received via stealing.
	StolenIn int64 `json:"stolen_in"`
	// StolenOut counts jobs raided from this shard (including a death
	// drain).
	StolenOut int64 `json:"stolen_out"`
	// State is the shard's membership state: "up", "suspect", or "dead".
	State string `json:"state"`
	// Epoch counts the shard's membership transitions (0 = never
	// churned).
	Epoch int64 `json:"epoch"`
}

// NewPlane builds the shard tier over the given orchestrators, which
// must each own a disjoint worker partition and a disjoint job-id space
// (core.Config.JobIDBase). The runtime must be the same clock the
// shards run on.
func NewPlane(rt core.Runtime, shards []*core.Orchestrator, cfg Config) (*Plane, error) {
	if rt == nil {
		return nil, fmt.Errorf("shard: nil runtime")
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: a plane needs at least one shard")
	}
	if cfg.BoundFactor == 0 {
		cfg.BoundFactor = DefaultBoundFactor
	}
	if cfg.Steal.Interval <= 0 {
		cfg.Steal.Interval = DefaultStealInterval
	}
	if cfg.Steal.MaxPerTick <= 0 {
		cfg.Steal.MaxPerTick = DefaultMaxStealPerTick
	}
	ring, err := NewRing(len(shards), DefaultVNodes)
	if err != nil {
		return nil, err
	}
	p := &Plane{
		runtime:  rt,
		shards:   shards,
		labels:   make([]string, len(shards)),
		cfg:      cfg,
		leaseTTL: time.Duration(DefaultDeadAfter+1) * cfg.Steal.Interval,
		reg:      telemetry.NewRegistry(),
		ring:     ring,
		loads:    make([]int, len(shards)),
		members:  make([]memberRecord, len(shards)),

		tickQueued:  make([]int, len(shards)),
		tickPending: make([]int, len(shards)),
		tickWeights: make([]float64, len(shards)),
	}
	p.loadOf = p.loadAt
	if cfg.Membership.Enabled {
		for i := range p.members {
			p.members[i].leaseUntil = rt.Now() + p.leaseTTL
		}
	}
	for i, o := range shards {
		label := o.ShardLabel()
		if label == "" {
			label = fmt.Sprintf("shard-%02d", i)
		}
		p.labels[i] = label
		p.queueDepth = append(p.queueDepth, p.reg.Gauge(
			"microfaas_shard_queue_depth",
			"Jobs waiting in the shard's worker queues at the last aggregator tick.",
			"shard", label))
		p.weight = append(p.weight, p.reg.Gauge(
			"microfaas_shard_weight",
			"The shard's current consistent-hash ring weight.",
			"shard", label))
		p.stolenIn = append(p.stolenIn, p.reg.Counter(
			"microfaas_shard_stolen_total",
			"Jobs migrated between shards by the work stealer, by direction.",
			"shard", label, "direction", "in"))
		p.stolenOut = append(p.stolenOut, p.reg.Counter(
			"microfaas_shard_stolen_total",
			"Jobs migrated between shards by the work stealer, by direction.",
			"shard", label, "direction", "out"))
		p.weight[i].Set(1)
	}
	return p, nil
}

// NumShards returns the number of shards behind the plane.
func (p *Plane) NumShards() int { return len(p.shards) }

// Shards returns the orchestrators behind the plane, in ring order.
func (p *Plane) Shards() []*core.Orchestrator { return p.shards }

// Labels returns the shard labels, in ring order.
func (p *Plane) Labels() []string { return p.labels }

// Registry returns the plane's own metric registry (shard queue-depth
// and steal counters). Per-shard metrics live in each shard's registry;
// WriteMergedMetrics stitches all of them together.
func (p *Plane) Registry() *telemetry.Registry { return p.reg }

// ShardFor returns the index of the key's home shard — the routing
// decision ignoring bounded loads. Use it to preview placement.
func (p *Plane) ShardFor(key string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ring.Lookup(key)
}

// route picks the destination shard for a key under the configured
// bounded-load factor, with pending counts as the load signal. It reads
// each shard's count once, into one snapshot under p.mu: the total and
// the ring's bounded walk both come from it. Pending is a lock-free load,
// so routing takes no shard's lock and allocates nothing.
func (p *Plane) route(key string) (*core.Orchestrator, int) {
	p.mu.Lock()
	total := 0
	for i, o := range p.shards {
		n := o.Pending()
		p.loads[i] = n
		total += n
	}
	idx := p.ring.LookupBounded(key, p.cfg.BoundFactor, total, p.loadOf)
	p.mu.Unlock()
	return p.shards[idx], idx
}

// loadAt is the bounded walk's load callback: route's snapshot of shard
// s. Caller holds p.mu.
func (p *Plane) loadAt(s int) int { return p.loads[s] }

// Submit routes one invocation by key and submits it asynchronously to
// the chosen shard. It returns the cluster-unique job id and the shard
// index that accepted it. The key is typically the function name, so
// a function's invocations colocate on one shard (warm state, fairness
// accounting); pass a compound key to spread a hot function.
func (p *Plane) Submit(key, function string, args []byte, cb func(core.Result)) (int64, int) {
	o, idx := p.route(key)
	id := o.SubmitAsync(function, args, cb)
	if id == 0 {
		id, idx = p.failover(idx, function, args, cb)
	}
	p.armTick()
	return id, idx
}

// failover re-submits an invocation its routed shard rejected — a dying
// shard is sealed the moment it loses its control plane but lingers on
// the ring until the health checker declares it dead, and during that
// window routed work must not be lost. The least-loaded live shard
// takes it; (0, idx) only when every shard is out of service.
func (p *Plane) failover(idx int, function string, args []byte, cb func(core.Result)) (int64, int) {
	d := p.leastLoaded(p.pendingExcept(idx), idx)
	if d < 0 {
		return 0, idx
	}
	return p.shards[d].SubmitAsync(function, args, cb), d
}

// Pending returns the cluster-wide pending (queued + running) count.
func (p *Plane) Pending() int {
	total := 0
	for _, o := range p.shards {
		total += o.Pending()
	}
	return total
}

// StolenTotal returns how many jobs the aggregator has migrated.
func (p *Plane) StolenTotal() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stolenTotal
}

// Status snapshots every shard's capacity view, in ring order.
func (p *Plane) Status() []ShardStatus {
	p.mu.Lock()
	weights := make([]float64, len(p.shards))
	states := make([]string, len(p.shards))
	epochs := make([]int64, len(p.shards))
	for i := range p.shards {
		weights[i] = p.ring.Weight(i)
		states[i] = p.members[i].state.String()
		epochs[i] = p.members[i].epoch
	}
	p.mu.Unlock()
	out := make([]ShardStatus, len(p.shards))
	for i, o := range p.shards {
		out[i] = ShardStatus{
			Index:     i,
			Label:     p.labels[i],
			Workers:   len(o.Workers()),
			Pending:   o.Pending(),
			Queued:    o.Queued(),
			Weight:    weights[i],
			StolenIn:  int64(p.stolenIn[i].Value()),
			StolenOut: int64(p.stolenOut[i].Value()),
			State:     states[i],
			Epoch:     epochs[i],
		}
	}
	return out
}

// WriteMergedMetrics writes one Prometheus exposition covering the
// whole cluster: the plane's own registry first (its families already
// carry shard labels), then every shard's registry with a shard label
// injected into each sample so same-named families stay distinct.
// Aggregate across shards with Samples.Sum / HistogramQuantile.
func (p *Plane) WriteMergedMetrics(w io.Writer) error {
	if err := p.reg.WritePrometheus(w); err != nil {
		return err
	}
	for i, o := range p.shards {
		tel := o.Telemetry()
		if tel == nil {
			continue
		}
		if err := tel.Registry().WritePrometheusLabeled(w, "shard", p.labels[i]); err != nil {
			return err
		}
	}
	return nil
}

// Drain stops routing new work and drains every shard in ring order,
// returning any jobs still unfinished when the context expired.
func (p *Plane) Drain(ctx context.Context) []core.Job {
	p.Close()
	var left []core.Job
	for _, o := range p.shards {
		left = append(left, o.Drain(ctx)...)
	}
	return left
}

// Close stops the capacity aggregator. Shards keep running; call Drain
// to stop them too.
func (p *Plane) Close() {
	p.mu.Lock()
	p.closed = true
	cancel := p.cancelTick
	p.cancelTick = nil
	p.tickArmed = false
	p.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

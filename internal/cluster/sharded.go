package cluster

import (
	"fmt"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/gpio"
	"microfaas/internal/node"
	"microfaas/internal/power"
	"microfaas/internal/powermgr"
	"microfaas/internal/shard"
	"microfaas/internal/sim"
	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
	"microfaas/internal/tsdb"
)

// shardIDSpan is the job-id space reserved per shard (shard i's ids
// start at i*shardIDSpan + 1). A disjoint, cluster-unique id space is
// what lets the work stealer migrate jobs identity-intact.
const shardIDSpan = int64(1) << 40

// shardLabel names shard si in metrics and gateway rows.
func shardLabel(si int) string { return fmt.Sprintf("shard-%02d", si) }

// ShardedSim is a MicroFaaS cluster split into N control-plane shards
// behind a consistent-hash load-balancer tier (see internal/shard).
// All shards share ONE discrete-event engine — a single virtual clock —
// so cross-shard interactions (work stealing, ring rebalancing) are
// deterministic under a seed, exactly like a single-shard sim. Each
// shard owns a disjoint worker partition, its own telemetry registry,
// its own trace collector, and (when power management is enabled) its
// own power manager; a stolen job's trace reads every shard's collector
// (trace.Traces).
type ShardedSim struct {
	// Engine is the single virtual clock every shard runs on.
	Engine *sim.Engine
	// Meter is the whole-cluster power meter.
	Meter *power.Meter
	// GPIO is the shared power-control plane audit log.
	GPIO *gpio.Controller
	// Plane is the load-balancer tier routing by function key.
	Plane *shard.Plane
	// Orchs are the per-shard orchestrators, in ring order.
	Orchs []*core.Orchestrator
	// Workers are the per-shard worker partitions, in ring order.
	Workers [][]*node.SimWorker
	// Telemetries are the per-shard metric registries (nil entries when
	// SimConfig.Telemetry was nil).
	Telemetries []*telemetry.Telemetry
	// PowerMgrs are the per-shard power managers (nil unless
	// SimConfig.Power was set).
	PowerMgrs []*powermgr.Manager
	// SharedTelemetry is the registry passed in SimConfig.Telemetry: it
	// carries only the cluster-wide power-meter gauges (each shard's
	// metrics live in Telemetries). Nil when telemetry was disabled.
	SharedTelemetry *telemetry.Telemetry

	// down is the churn kill mask backing the membership probe (see
	// churn.go); owner tracks which shard currently holds each board
	// (nil when membership is disabled — no churn). Engine-thread only.
	down  []bool
	owner map[string]int
}

// NewShardedMicroFaaSSim builds shards × workersPerShard SBCs split
// into that many control-plane shards behind a load-balancer tier.
// SimConfig applies per shard (its Telemetry field acts as an on/off
// switch: when non-nil, each shard gets its OWN fresh registry, and
// the passed-in instance carries only the shared power-meter gauges).
func NewShardedMicroFaaSSim(shards, workersPerShard int, cfg SimConfig, scfg shard.Config) (*ShardedSim, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("cluster: need at least one shard, got %d", shards)
	}
	if workersPerShard <= 0 {
		return nil, fmt.Errorf("cluster: need at least one SBC per shard, got %d", workersPerShard)
	}
	b := newSimBuilder(cfg, gpio.NewController())
	// Every shard registers into the one meter and GPIO plane: size their
	// indices for the whole rack before the first shard does.
	b.meter.Grow(shards * workersPerShard)
	b.gpio.Grow(shards * workersPerShard)
	s := &ShardedSim{Engine: b.engine, Meter: b.meter, GPIO: b.gpio, SharedTelemetry: cfg.Telemetry}
	for si := 0; si < shards; si++ {
		var tel *telemetry.Telemetry
		if cfg.Telemetry != nil {
			tel = telemetry.New()
		}
		workers, err := b.workers(boardIDs(fmt.Sprintf("s%02d-sbc-", si), 4, workersPerShard), nil, tel)
		if err != nil {
			return nil, err
		}
		orch, pm, err := b.shard(si, shardLabel(si), tel, workers)
		if err != nil {
			return nil, err
		}
		s.Telemetries = append(s.Telemetries, tel)
		s.Workers = append(s.Workers, workers)
		s.Orchs = append(s.Orchs, orch)
		if pm != nil {
			s.PowerMgrs = append(s.PowerMgrs, pm)
		}
	}
	s.down = make([]bool, shards)
	if scfg.Membership.Enabled {
		if cfg.Power != nil {
			return nil, fmt.Errorf("cluster: dynamic membership is not supported with power management (a power manager's node set is fixed at construction)")
		}
		// Wire the sim's churn machinery into the plane: the kill mask
		// backs the probe, and worker re-homing chains ahead of any
		// caller-supplied hooks.
		if scfg.Membership.Probe == nil {
			scfg.Membership.Probe = func(i int) bool { return !s.down[i] }
		}
		userDeath, userRejoin := scfg.Membership.OnDeath, scfg.Membership.OnRejoin
		scfg.Membership.OnDeath = func(i int) {
			s.rehomeDead(i)
			if userDeath != nil {
				userDeath(i)
			}
		}
		scfg.Membership.OnRejoin = func(i int) {
			s.rehomeRejoin(i)
			if userRejoin != nil {
				userRejoin(i)
			}
		}
		s.owner = make(map[string]int, shards*workersPerShard)
		for si, ws := range s.Workers {
			for _, w := range ws {
				s.owner[w.ID()] = si
			}
		}
	}
	plane, err := shard.NewPlane(core.SimRuntime{Engine: b.engine}, s.Orchs, scfg)
	if err != nil {
		return nil, err
	}
	s.Plane = plane
	return s, nil
}

// AttachTSDB points the store at every registry this cluster owns — the
// plane's shard-labeled gauges, the shared power-meter registry, and
// each shard's own registry under its shard label — and hooks the
// store's Scrape onto the plane's aggregator tick, so samples land on
// the same virtual-clock cadence as steal/rebalance decisions. Call
// before submitting traffic; a nil store is a no-op and leaves the
// plane's tick schedule byte-identical to an unobserved run.
func (s *ShardedSim) AttachTSDB(store *tsdb.Store) {
	if store == nil {
		return
	}
	store.AddSource("", s.Plane.Registry())
	if s.SharedTelemetry != nil {
		store.AddSource("", s.SharedTelemetry.Registry())
	}
	for si, tel := range s.Telemetries {
		if tel != nil {
			store.AddSource(shardLabel(si), tel.Registry())
		}
	}
	s.Plane.SetTickHook(store.Scrape)
}

// Run drives the engine until every submitted job settles, returning an
// error if any job is still pending when the event queue empties.
func (s *ShardedSim) Run() error {
	s.Engine.RunAll()
	if p := s.Plane.Pending(); p != 0 {
		return fmt.Errorf("cluster: %d jobs stuck after sharded run", p)
	}
	return nil
}

// ShardedStats aggregates a drained sharded run across all shards.
type ShardedStats struct {
	// Completed/Errors count settled invocations cluster-wide.
	Completed int
	Errors    int
	// MeanCycle is the mean boot+overhead+exec across invocations.
	MeanCycle time.Duration
	// ThroughputPerMin is completed work over the makespan, in functions
	// per minute. Open-loop runs include the ramp and the drain tail
	// (the last straggler worker), so this understates capacity.
	ThroughputPerMin float64
	// SustainedPerMin is the completion rate over the middle of the run
	// (finishes inside [20%, 60%] of the makespan), when every worker is
	// busy — the sharded experiments' headline number.
	SustainedPerMin float64
	// P50/P99 are end-to-end (submit→settle) latency percentiles.
	P50, P99 time.Duration
	// Stolen counts cross-shard job migrations.
	Stolen int64
	// TotalEnergyJ is whole-cluster metered energy; JoulesPerFunction
	// the paper's headline efficiency metric.
	TotalEnergyJ      float64
	JoulesPerFunction float64
	// MakespanS is the virtual time the run took.
	MakespanS float64
}

// Summary reads every shard's record table as one.
func (s *ShardedSim) Summary() trace.Summary {
	colls := make([]*trace.Collector, len(s.Orchs))
	for i, o := range s.Orchs {
		colls[i] = o.Collector()
	}
	return trace.Summarize(colls...)
}

// Stats summarizes the cluster after Run.
func (s *ShardedSim) Stats() ShardedStats {
	makespan := s.Engine.Now()
	sum := s.Summary()
	st := ShardedStats{
		Completed: sum.Completed,
		Errors:    sum.Errors,
		MeanCycle: sum.MeanCycle,
		P50:       sum.Percentile(50),
		P99:       sum.Percentile(99),
		Stolen:    s.Plane.StolenTotal(),
		MakespanS: makespan.Seconds(),
	}
	if st.MakespanS > 0 {
		st.ThroughputPerMin = float64(st.Completed) / (st.MakespanS / 60)
	}
	winLo, winHi := makespan/5, makespan*3/5
	if window := winHi - winLo; window > 0 {
		st.SustainedPerMin = float64(sum.CountFinished(winLo, winHi)) / window.Minutes()
	}
	st.TotalEnergyJ = float64(s.Meter.TotalEnergy(s.Engine.Now()))
	if st.Completed > 0 {
		st.JoulesPerFunction = st.TotalEnergyJ / float64(st.Completed)
	}
	return st
}

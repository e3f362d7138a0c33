// Package core implements the paper's primary contribution: the MicroFaaS
// cluster orchestration platform (OP, Sec IV-D).
//
// The OP maintains a job queue per worker node. Jobs are assigned to a
// random sampling of those queues (simulating the arrival of function
// invocations); on assignment a powered-down worker powers on, boots its
// worker OS, executes the job run-to-completion, and then either reboots
// into its next queued job or powers down. The OP records per-invocation
// timestamps for the evaluation, exactly as the paper's Python OP does.
//
// The same orchestrator drives two worker back-ends: discrete-event
// simulated workers (internal/node SimWorker / VMWorker, for the paper's
// figure-scale experiments) and live TCP workers executing real Go
// workload functions (internal/node LiveWorker). The Runtime abstraction
// is the only clock the OP touches, so its logic is identical in both
// modes.
//
// Failure model (Sec III-a makes worker faults independent; the OP masks
// them): every attempt can carry a deadline enforced on the Runtime clock,
// so a wedged worker yields a timed-out Result instead of occupying its
// queue forever; failed attempts are re-queued onto a different worker
// with exponential backoff and seeded jitter; per-worker consecutive
// failures feed a circuit breaker that ejects the worker from assignment
// until a probe interval passes; and Drain stops intake and hands back the
// jobs it had to abandon.
package core

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"microfaas/internal/powermgr"
	"microfaas/internal/sim"
	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
)

// Job is one queued function invocation.
type Job struct {
	// ID is the job's cluster-unique identifier, assigned at Submit.
	ID int64
	// Function names the workload function to run (see internal/workload).
	Function string
	// Args is the function's JSON-encoded argument object.
	Args []byte
	// SubmittedAt is when the job entered the platform, on the cluster
	// clock (virtual time in sim, wall time since start in live mode).
	SubmittedAt time.Duration
	// Attempt counts retries: 0 for the first execution. The OP re-queues
	// failed jobs onto a different worker while attempts remain (hardware
	// isolation makes worker-local faults independent, so reassignment is
	// the natural retry policy).
	Attempt int
	// cb is the completion callback SubmitAsync was given (nil if none). It
	// travels with the job, so a job taken off one orchestrator and
	// submitted to another is called back from wherever it settles.
	cb func(Result)
}

// Fail settles a job that was taken off its orchestrator (TakeQueued,
// TakeAll) and that no orchestrator would take back: its completion
// callback, if it has one, fires with reason as the error.
func (j Job) Fail(reason string) {
	if j.cb != nil {
		j.cb(Result{Job: j, Err: reason})
	}
}

// Result is a completed (or failed) invocation as reported by a worker.
type Result struct {
	// Job is the invocation this result settles (its final attempt).
	Job Job
	// WorkerID names the worker that produced the result.
	WorkerID string
	// Output is the function's JSON-encoded return value (nil on failure).
	Output []byte
	// Err is the failure message, empty on success.
	Err string

	// TimedOut marks a Result synthesized by the OP because the attempt's
	// deadline expired before the worker reported back.
	TimedOut bool

	// StartedAt/FinishedAt are on the cluster clock.
	StartedAt, FinishedAt time.Duration
	// Boot/Overhead/Exec decompose the worker's cycle (Fig 3).
	Boot, Overhead, Exec time.Duration

	// Joules is the metered energy the attempt consumed on its worker
	// (boot through power-down), zero when the worker has no meter. The
	// orchestrator charges it against the function's energy budget.
	// BootJoules is the part of it the boot drew.
	Joules, BootJoules float64
}

// Worker is a single-tenant, run-to-completion worker node. RunJob carries
// the node through one full cycle: power-on (the OP's GPIO line in the
// prototype), worker-OS boot, input receive, execution, result return, and
// power-down. done is invoked at most once, and never synchronously from
// inside RunJob itself — sim workers fire it from a scheduled event, live
// workers from their connection's reader (or its timeout, or a fresh
// goroutine when the request never left). A wedged worker may never invoke
// done at all; the OP's deadline covers that case. The orchestrator never
// calls RunJob concurrently on the same worker.
type Worker interface {
	// ID returns the worker's stable, cluster-unique name.
	ID() string
	// RunJob executes one job cycle and reports through done (see the
	// interface comment for the invocation contract).
	RunJob(job Job, done func(Result))
}

// Runtime abstracts the cluster clock: virtual (discrete-event) in sim
// mode, wall-clock in live mode.
type Runtime interface {
	// Now returns elapsed cluster time.
	Now() time.Duration
	// After schedules fn after d; the returned function cancels it.
	After(d time.Duration, fn func()) (cancel func())
}

// SimRuntime adapts a sim.Engine to the Runtime interface.
type SimRuntime struct {
	// Engine is the discrete-event engine supplying virtual time.
	Engine *sim.Engine
}

// Now returns the engine's virtual time.
func (r SimRuntime) Now() time.Duration { return r.Engine.Now() }

// After schedules fn on the engine.
func (r SimRuntime) After(d time.Duration, fn func()) func() {
	ev := r.Engine.Schedule(d, fn)
	return ev.Cancel
}

// WallRuntime is the live cluster's clock: time elapsed since Start.
type WallRuntime struct {
	// Start anchors the clock; Now reports time elapsed since it.
	Start time.Time
}

// NewWallRuntime returns a runtime anchored at the current instant.
func NewWallRuntime() WallRuntime { return WallRuntime{Start: time.Now()} }

// Now returns wall time elapsed since the runtime was anchored.
func (r WallRuntime) Now() time.Duration { return time.Since(r.Start) }

// After schedules fn on a wall-clock timer.
func (r WallRuntime) After(d time.Duration, fn func()) func() {
	t := time.AfterFunc(d, fn)
	return func() { t.Stop() }
}

// AssignPolicy selects how Submit picks a worker queue.
type AssignPolicy int

const (
	// AssignRandom is the paper's policy: a uniformly random queue.
	AssignRandom AssignPolicy = iota
	// AssignRoundRobin cycles through workers in registration order.
	AssignRoundRobin
	// AssignLeastLoaded binds a job to a board only when the board is
	// free: a job starts on the most recently freed board the breaker
	// admits, or waits on the orchestrator's backlog, whose head the first
	// such board to come free takes (see backlog.go). A retry never runs on
	// the board it failed on while another is attached; SubmitTo and the
	// arrival process still pin a job to a board's own queue.
	AssignLeastLoaded
	// AssignEnergyAware packs load to maximize power-gated nodes: it
	// prefers an idle, already-powered worker; wakes a powered-down one
	// only when every powered worker is occupied (and the power cap
	// admits another node); and otherwise queues behind the least-loaded
	// powered worker. Deterministic — ties break by registration order
	// and it never draws randomness. Without a power manager configured
	// every worker counts as powered, so it degrades to least-loaded.
	AssignEnergyAware
)

// String returns the policy's CLI name (the form ParsePolicy accepts).
func (p AssignPolicy) String() string {
	switch p {
	case AssignRandom:
		return "random"
	case AssignRoundRobin:
		return "round-robin"
	case AssignLeastLoaded:
		return "least-loaded"
	case AssignEnergyAware:
		return "energy-aware"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps a policy's String form back to its value (for CLI
// flags): "random", "round-robin", "least-loaded", or "energy-aware".
func ParsePolicy(s string) (AssignPolicy, error) {
	for _, p := range []AssignPolicy{AssignRandom, AssignRoundRobin, AssignLeastLoaded, AssignEnergyAware} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("core: unknown assignment policy %q", s)
}

// BreakerState is a worker's circuit-breaker position.
type BreakerState int

const (
	// BreakerClosed: the worker is healthy and assignable.
	BreakerClosed BreakerState = iota
	// BreakerOpen: consecutive failures crossed the threshold; the worker
	// is ejected from assignment until its probe interval passes.
	BreakerOpen
	// BreakerHalfOpen: the probe interval has passed; the worker is
	// assignable again, and its next outcome closes or re-opens the
	// breaker.
	BreakerHalfOpen
)

// String renders the state as reported in WorkerHealth ("closed",
// "open", "half-open").
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("breaker(%d)", int(s))
	}
}

// WorkerHealth is a point-in-time snapshot of one worker's failure
// tracking, as exposed by Orchestrator.Health.
type WorkerHealth struct {
	// ID names the worker.
	ID string `json:"id"`
	// State is the circuit-breaker position (serialized via Breaker).
	State BreakerState `json:"-"`
	// ConsecutiveFailures counts failures since the last success; it arms
	// the breaker threshold.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// Completed/Failed count attempts (not jobs); TimedOut attempts are a
	// subset of Failed.
	Completed int `json:"completed"`
	// Failed counts failed attempts; TimedOut ones are the subset that
	// hit the per-attempt deadline.
	Failed   int `json:"failed"`
	TimedOut int `json:"timed_out"` // deadline expiries among Failed
	// QueueDepth is the worker's queued (not yet running) job count.
	QueueDepth int `json:"queue_depth"`
	// Busy reports whether the worker is executing a job right now.
	Busy bool `json:"busy"`
	// Power is the worker's power-plane state ("off", "waking", "on") when
	// a power manager is configured; empty otherwise.
	Power string `json:"power,omitempty"`
}

// workerHealth is the mutable per-worker record behind WorkerHealth.
type workerHealth struct {
	consec    int
	completed int
	failed    int
	timedOut  int
	open      bool
	reopenAt  time.Duration
}

// workerSlot is the orchestrator's per-worker state record: the worker
// itself, its job queue, its busy flag, its health record, and the index
// fields that keep it addressable in O(1) from the eligibility structures
// and the free stacks.
// Folding queue and busy state into one struct (instead of parallel maps
// keyed by worker id) keeps the dispatch hot path to a single pointer
// dereference per field.
type workerSlot struct {
	w  Worker
	id string
	// rank is the slot's position in Orchestrator.slots, so ranks order the
	// attached slots by registration; detachLocked closes the gap it leaves.
	rank int
	// rec is the worker's handle in the collector and m its metric
	// series, both taken once at registration: settling an attempt files
	// its record and counts its outcome through them.
	rec trace.WorkerRef
	m   *workerMetrics

	// jobQueue is the worker's own FIFO of waiting jobs.
	jobQueue
	busy bool

	// waking is set while a wake-on-demand power-up requested for this
	// worker is in flight; dispatch waits for the manager's ready
	// callback. bootPending marks the first dispatch after a wake, which
	// must not ask the manager again. Both are meaningful only with a
	// power manager.
	waking      bool
	bootPending bool

	health workerHealth

	// eligPos is this slot's index in Orchestrator.eligible (-1 while the
	// breaker has it ejected); parolePos is its index in the parole heap
	// (-1 while assignable). Exactly one is >= 0 at any time.
	eligPos   int
	parolePos int
	// freePos is the slot's index in its class's free stack (-1 while it
	// is on none); queued is the queue depth loadChangedLocked last
	// published, the slot's share of Orchestrator.queued.
	freePos int32
	queued  int32

	// detached marks a slot spliced out by RemoveWorker: it takes no new
	// assignments but stays alive for its in-flight attempt.
	// pendingHandoff is RemoveWorker's deferred release for a
	// detached-while-busy worker; completed fires it once the attempt
	// settles.
	detached       bool
	pendingHandoff func(Worker)
}

// paroleHeap orders breaker-ejected workers by reopen time (ties broken by
// registration order), so promoting every worker whose probe interval has
// passed is a peek-and-pop instead of a scan.
type paroleHeap []*workerSlot

func (h paroleHeap) Len() int { return len(h) }

func (h paroleHeap) Less(i, j int) bool {
	if h[i].health.reopenAt != h[j].health.reopenAt {
		return h[i].health.reopenAt < h[j].health.reopenAt
	}
	return h[i].rank < h[j].rank
}

func (h paroleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].parolePos = i
	h[j].parolePos = j
}

func (h *paroleHeap) Push(x any) {
	s := x.(*workerSlot)
	s.parolePos = len(*h)
	*h = append(*h, s)
}

func (h *paroleHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	s.parolePos = -1
	*h = old[:n-1]
	return s
}

// AttemptPolicy is how the OP attempts each job: how many times, how long
// an attempt may run, the backoff between attempts, and the per-worker
// circuit breaker. Config and both cluster configs embed it, so each
// setting is declared once and a cluster hands it to its orchestrators
// whole. The zero value is the paper's OP: one attempt, no deadline, no
// breaker.
type AttemptPolicy struct {
	// MaxAttempts caps executions per job (default 1 = no retries).
	// Failed jobs are re-queued onto a different worker until the cap;
	// every attempt is recorded in the collector, and SubmitAsync
	// callbacks fire only on the final outcome.
	MaxAttempts int
	// JobTimeout bounds every attempt the orchestrator dispatches (zero =
	// no deadline), a job moved in from another orchestrator included.
	// Enforced via Runtime.After, so it behaves identically in sim and
	// live modes.
	JobTimeout time.Duration
	// RetryBase enables exponential backoff between attempts: attempt n
	// waits in [d/2, d] where d = min(RetryBase·2^(n-1), max) and max is
	// 30·RetryBase, at least 1s, with the jitter drawn from the
	// orchestrator's seeded RNG (sim runs stay deterministic). Zero keeps
	// the immediate re-queue.
	RetryBase time.Duration
	// BreakerThreshold opens a worker's circuit breaker after this many
	// consecutive failed attempts, ejecting it from assignment policies.
	// Zero disables health-based ejection.
	BreakerThreshold int
	// BreakerProbe is how long an open breaker ejects its worker before
	// the worker is probed with real work again (default 30s).
	BreakerProbe time.Duration
}

// Config assembles an Orchestrator.
type Config struct {
	// Runtime supplies the cluster clock and timers (SimRuntime or
	// WallRuntime).
	Runtime Runtime
	// Workers is the fixed worker fleet, in registration order (the order
	// round-robin and tie-breaks follow).
	Workers   []Worker
	Collector *trace.Collector // optional; a fresh one is created if nil
	// Seed drives the random queue-assignment sampling, retry jitter, and
	// retry-target selection.
	Seed int64
	// Policy selects the queue-assignment policy (default AssignRandom,
	// the paper's).
	Policy AssignPolicy
	// AttemptPolicy is how each job is attempted: retries, deadlines,
	// backoff and breakers.
	AttemptPolicy
	// Telemetry receives metrics (nil = disabled; the disabled path
	// costs one nil check per site and leaves seeded runs bit-identical —
	// telemetry never touches the RNG or the clock).
	Telemetry *telemetry.Telemetry
	// PowerManager, when set, puts every scheduling decision through the
	// dynamic power-management plane: dispatch against a powered-down
	// worker first wakes it (the job's queue wait absorbs the boot), idle
	// workers power off after the manager's timeout, and failed attempts
	// power-cycle their node. The manager must be built over the same
	// workers (matching ids) and the same Runtime. Nil keeps the static
	// per-job power policy and leaves seeded runs byte-identical.
	PowerManager *powermgr.Manager
	// JobIDBase offsets this orchestrator's job-id sequence (ids start at
	// JobIDBase+1). A sharded control plane gives each shard a disjoint
	// id space so job ids — and everything keyed by them: async pickup,
	// trace lookups, collector records — stay cluster-unique when jobs
	// migrate between shards. Zero keeps the historical 1,2,3,… sequence.
	JobIDBase int64
	// ShardLabel names the control-plane shard this orchestrator is (for
	// example "shard-03"), as the plane and its gateway label the shard's
	// rows and events. Empty (the default) adds nothing.
	ShardLabel string
}

// Orchestrator is the OP: per-worker job queues, random assignment,
// dispatch, and data collection.
type Orchestrator struct {
	runtime   Runtime
	collector *trace.Collector
	tel       *telemetry.Telemetry
	m         orchMetrics

	pm *powermgr.Manager // nil = static power policy

	shardLabel string
	policy     AssignPolicy
	// attempt is Config.AttemptPolicy with its MaxAttempts and
	// BreakerProbe defaults filled in; retryMax derives from its
	// RetryBase.
	attempt  AttemptPolicy
	retryMax time.Duration

	mu  sync.Mutex
	rng *rand.Rand
	// slots holds every worker's state record in registration order; byID
	// resolves a worker id to its slot in O(1) (SubmitTo and retry
	// re-queues used to scan the worker list).
	slots []*workerSlot
	byID  map[string]*workerSlot
	// eligible is the indexed free-list of assignable workers: slots whose
	// breaker admits new work. It starts as all workers in registration
	// order; breaker trips swap-remove, recoveries append. parole holds the
	// ejected slots keyed by reopen time.
	eligible []*workerSlot
	parole   paroleHeap
	// backlog is least-loaded's queue of jobs no board was free for, and
	// free its free boards, one stack per breaker class (see backlog.go).
	backlog jobQueue
	free    [2][]*workerSlot
	parked  map[int64]*parkedRetry
	// retries are least-loaded's retries that only the board they failed
	// on was free for, oldest first (see backlog.go).
	retries []waitingRetry
	// budgets holds per-function energy accounting (nil entries never
	// exist; functions without a budget are simply absent).
	budgets map[string]*fnBudget
	nextID  int64
	rrNext  int  // next round-robin index
	sealed  bool // Seal called: queued jobs frozen for TakeAll recovery
	idle    *sync.Cond
	flFree  *inflight // recycled inflight records (see inflight)

	arrivalCancel func()

	// The load counts the shard plane reads on every routed submit. Each is
	// written only under mu, so every read-modify-write stays serialised,
	// and read anywhere without it: Pending, Queued and Draining are plain
	// loads, and a routing plane never takes a shard's lock.
	pending  atomic.Int64 // queued + running + backoff-parked jobs; see addPendingLocked
	queued   atomic.Int64 // total of every slot's queue depth; see loadChangedLocked
	draining atomic.Bool
}

// inflight tracks one dispatched attempt. Exactly one of the worker's done
// callback or the deadline timer settles it; the loser is ignored.
//
// inflight records are pooled on the orchestrator's free list: dispatch is
// the per-invocation hot path, and recycling the record (together with its
// doneFn closure, built once per record and reused for every job it ever
// carries) makes a steady-state dispatch allocation-free. gen increments
// at every recycle so the deadline timer — whose callback may race the
// recycle in wall-clock mode — can detect that its record has moved on.
// A record is recycled only from completed (the worker's one done call is
// being consumed, so no reference survives); a deadline-settled record
// whose worker is still wedged stays out of the pool until the late done
// arrives, or forever — a wedged worker holds its doneFn indefinitely.
type inflight struct {
	o             *Orchestrator
	job           Job
	slot          *workerSlot
	started       time.Duration
	settled       bool
	gen           uint64
	cancelTimeout func()
	doneFn        func(Result) // stable across reuses; calls o.completed(fl, ·)
	next          *inflight    // free-list link
}

// run starts the attempt on its worker. Must be called after o.mu is
// released: RunJob can block (live workers write to TCP) and must never
// run under the orchestrator lock.
func (fl *inflight) run() { fl.slot.w.RunJob(fl.job, fl.doneFn) }

// getInflightLocked pops a recycled record or builds a fresh one (with its
// reusable done closure). Caller holds o.mu.
func (o *Orchestrator) getInflightLocked() *inflight {
	fl := o.flFree
	if fl != nil {
		o.flFree = fl.next
		fl.next = nil
		return fl
	}
	fl = &inflight{o: o}
	fl.doneFn = func(res Result) { fl.o.completed(fl, res) }
	return fl
}

// putInflightLocked recycles a record whose references are all dead: the
// generation bump orphans any still-pending deadline callback. Caller
// holds o.mu.
func (o *Orchestrator) putInflightLocked(fl *inflight) {
	fl.gen++
	fl.job = Job{}
	fl.slot = nil
	fl.settled = false
	fl.cancelTimeout = nil
	fl.next = o.flFree
	o.flFree = fl
}

// parkedRetry is a failed job waiting out its backoff delay.
type parkedRetry struct {
	job     Job
	exclude string // the worker the previous attempt failed on
	cancel  func()
}

// fnBudget tracks one function's energy budget. spent accumulates every
// attempt's metered joules (failures included — the energy was burned on
// the function's behalf); exhausted latches once spent crosses limit and
// only resets when the budget is raised or removed.
type fnBudget struct {
	limit     float64
	spent     float64
	exhausted bool
}

// BudgetStatus is one function's energy-budget accounting snapshot.
type BudgetStatus struct {
	// Function is the budgeted function's name.
	Function string `json:"function"`
	// LimitJoules is the configured cap.
	LimitJoules float64 `json:"limit_joules"`
	// SpentJoules is the metered energy charged so far (all attempts).
	SpentJoules float64 `json:"spent_joules"`
	// Exhausted reports whether spending has crossed the cap; while set,
	// the function is deprioritized.
	Exhausted bool `json:"exhausted"`
}

// New builds an orchestrator over the given workers.
func New(cfg Config) (*Orchestrator, error) {
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("core: a Runtime is required")
	}
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("core: at least one worker is required")
	}
	coll := cfg.Collector
	if coll == nil {
		coll = trace.NewCollector()
	}
	switch cfg.Policy {
	case AssignRandom, AssignRoundRobin, AssignLeastLoaded, AssignEnergyAware:
	default:
		return nil, fmt.Errorf("core: unknown assignment policy %d", int(cfg.Policy))
	}
	if cfg.JobTimeout < 0 || cfg.RetryBase < 0 ||
		cfg.BreakerThreshold < 0 || cfg.BreakerProbe < 0 {
		return nil, fmt.Errorf("core: negative failure-handling durations/thresholds")
	}
	attempt := cfg.AttemptPolicy
	if attempt.MaxAttempts <= 0 {
		attempt.MaxAttempts = 1
	}
	if attempt.BreakerThreshold > 0 && attempt.BreakerProbe == 0 {
		attempt.BreakerProbe = 30 * time.Second
	}
	retryMax := 30 * attempt.RetryBase
	if attempt.RetryBase > 0 && retryMax < time.Second {
		retryMax = time.Second
	}
	if cfg.JobIDBase < 0 {
		return nil, fmt.Errorf("core: negative JobIDBase %d", cfg.JobIDBase)
	}
	o := &Orchestrator{
		runtime:    cfg.Runtime,
		collector:  coll,
		pm:         cfg.PowerManager,
		shardLabel: cfg.ShardLabel,
		policy:     cfg.Policy,
		attempt:    attempt,
		retryMax:   retryMax,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		slots:      make([]*workerSlot, 0, len(cfg.Workers)),
		byID:       make(map[string]*workerSlot, len(cfg.Workers)),
		eligible:   make([]*workerSlot, 0, len(cfg.Workers)),
		parked:     make(map[int64]*parkedRetry),
		budgets:    make(map[string]*fnBudget),
		nextID:     cfg.JobIDBase,
	}
	o.idle = sync.NewCond(&o.mu)
	o.initTelemetry(cfg.Telemetry)
	if err := o.addWorkersLocked(cfg.Workers); err != nil {
		return nil, err
	}
	return o, nil
}

// addWorkersLocked registers ws at the end of the registration order —
// New's whole list or AddWorker's one worker — from one slab of slots
// (and, with telemetry on, one of their metric series), with the
// collector's worker table grown once for the batch. A duplicate
// id stops it with the workers before it registered, which only AddWorker
// (a batch of one) leaves behind. Caller holds o.mu, or is New.
func (o *Orchestrator) addWorkersLocked(ws []Worker) error {
	slab := make([]workerSlot, len(ws))
	var ms []workerMetrics
	if o.tel != nil {
		ms = make([]workerMetrics, len(ws))
	}
	o.collector.GrowWorkers(len(ws))
	for i, w := range ws {
		id := w.ID()
		if _, dup := o.byID[id]; dup {
			return fmt.Errorf("core: duplicate worker id %q", id)
		}
		s := &slab[i]
		*s = workerSlot{w: w, id: id, rank: len(o.slots), rec: o.collector.Worker(id), m: &noWorkerMetrics, eligPos: -1, parolePos: -1, freePos: -1}
		if ms != nil {
			s.m = &ms[i]
			o.initWorkerTelemetry(id, s.m)
		}
		o.slots = append(o.slots, s)
		o.byID[id] = s
		o.addEligibleLocked(s) // free: the last registered is on top
	}
	return nil
}

// Runtime returns the clock the orchestrator runs on.
func (o *Orchestrator) Runtime() Runtime { return o.runtime }

// Telemetry returns the orchestrator's telemetry (nil when disabled).
func (o *Orchestrator) Telemetry() *telemetry.Telemetry { return o.tel }

// PowerManager returns the power-management plane (nil when the cluster
// runs the static per-job power policy).
func (o *Orchestrator) PowerManager() *powermgr.Manager { return o.pm }

// ShardLabel returns the control-plane shard name this orchestrator was
// configured with ("" for an unsharded deployment).
func (o *Orchestrator) ShardLabel() string { return o.shardLabel }

// Collector returns the orchestrator's trace collector.
func (o *Orchestrator) Collector() *trace.Collector { return o.collector }

// Workers returns the worker ids in registration order.
func (o *Orchestrator) Workers() []string {
	ids := make([]string, len(o.slots))
	for i, s := range o.slots {
		ids[i] = s.id
	}
	return ids
}

// Health returns a snapshot of every worker's failure tracking, in
// registration order.
func (o *Orchestrator) Health() []WorkerHealth {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.runtime.Now()
	out := make([]WorkerHealth, 0, len(o.slots))
	for _, s := range o.slots {
		h := &s.health
		st := BreakerClosed
		if h.open {
			if now >= h.reopenAt {
				st = BreakerHalfOpen
			} else {
				st = BreakerOpen
			}
		}
		wh := WorkerHealth{
			ID:                  s.id,
			State:               st,
			ConsecutiveFailures: h.consec,
			Completed:           h.completed,
			Failed:              h.failed,
			TimedOut:            h.timedOut,
			QueueDepth:          s.qlen(),
			Busy:                s.busy,
		}
		if o.pm != nil {
			wh.Power = o.pm.StateName(s.id)
		}
		out = append(out, wh)
	}
	return out
}

// Submit places an invocation by the assignment policy (the paper's: a
// uniformly random worker's queue) and returns the job id. It returns 0 without
// enqueueing when the orchestrator is draining.
func (o *Orchestrator) Submit(function string, args []byte) int64 {
	return o.SubmitAsync(function, args, nil)
}

// SubmitAsync is Submit with a completion callback: cb (when non-nil) is
// invoked exactly once with the job's final result (after any retries),
// once it is recorded in the collector. The callback runs outside the
// orchestrator lock; sim-mode callbacks run on the engine thread. When the
// orchestrator is draining, SubmitAsync returns 0 and cb never fires.
func (o *Orchestrator) SubmitAsync(function string, args []byte, cb func(Result)) int64 {
	o.mu.Lock()
	if o.draining.Load() {
		o.mu.Unlock()
		return 0
	}
	job := o.newJobLocked(function, args, cb)
	var b batch
	o.placeLocked(job, nil, &b)
	o.mu.Unlock()
	b.run()
	return job.ID
}

// placeLocked puts a job where the policy sends it, adding its dispatched
// attempt to b. off is the board a retry failed on, or the wedged or
// detached board a queued job is moved off: the job goes to another board
// while there is one. Caller holds o.mu.
func (o *Orchestrator) placeLocked(job Job, off *workerSlot, b *batch) {
	if o.policy == AssignLeastLoaded || len(o.slots) == 0 {
		o.placeBacklogLocked(job, off, b)
		return
	}
	var s *workerSlot
	if off != nil {
		s = o.pickRetryWorkerLocked(off)
	} else {
		s = o.pickWorkerLocked(job.Function)
	}
	o.pushJobLocked(s, job)
	b.add(o.maybeDispatchLocked(s))
}

// addEligibleLocked appends a slot to the free-list (a free board moves
// to the top of the eligible class's free stack). Caller holds o.mu.
func (o *Orchestrator) addEligibleLocked(s *workerSlot) {
	if s.eligPos >= 0 {
		return
	}
	o.unfreeLocked(s)
	s.eligPos = len(o.eligible)
	o.eligible = append(o.eligible, s)
	o.loadChangedLocked(s)
}

// removeEligibleLocked swap-removes a slot from the free-list (a free
// board moves to the top of the ejected class's free stack). Caller holds
// o.mu.
func (o *Orchestrator) removeEligibleLocked(s *workerSlot) {
	if s.eligPos < 0 {
		return
	}
	o.unfreeLocked(s)
	last := len(o.eligible) - 1
	moved := o.eligible[last]
	o.eligible[s.eligPos] = moved
	moved.eligPos = s.eligPos
	o.eligible[last] = nil
	o.eligible = o.eligible[:last]
	s.eligPos = -1
	o.loadChangedLocked(s)
}

// promoteParoledLocked moves every breaker-ejected worker whose probe
// interval has passed back onto the free-list (its breaker turns
// half-open: assignable, next outcome decides). Amortized O(1) per
// breaker transition. Caller holds o.mu.
func (o *Orchestrator) promoteParoledLocked() {
	now := o.runtime.Now()
	for len(o.parole) > 0 && o.parole[0].health.reopenAt <= now {
		s := heap.Pop(&o.parole).(*workerSlot)
		o.addEligibleLocked(s)
	}
}

// assignableLocked returns the slots the assignment policy may choose
// from. With the breaker disabled this is exactly the registered worker
// list (so assignment randomness is unchanged from the breaker-free OP);
// when every breaker is open there is nowhere better to send work, so all
// workers stay assignable. Caller holds o.mu.
func (o *Orchestrator) assignableLocked() []*workerSlot {
	if o.attempt.BreakerThreshold <= 0 {
		return o.slots
	}
	o.promoteParoledLocked()
	if len(o.eligible) == 0 {
		return o.slots
	}
	return o.eligible
}

// pickWorkerLocked applies a binding assignment policy — any but
// least-loaded, which places through the backlog — over breaker-eligible
// workers. function feeds the energy-aware policy's budget deprioritization
// (a budget-exhausted function never triggers a node wake); the other
// policies ignore it. Caller holds o.mu.
func (o *Orchestrator) pickWorkerLocked(function string) *workerSlot {
	ws := o.assignableLocked()
	switch o.policy {
	case AssignRoundRobin:
		s := ws[o.rrNext%len(ws)]
		o.rrNext++
		return s
	case AssignEnergyAware:
		return o.pickEnergyAwareLocked(ws, o.exhaustedLocked(function))
	default: // AssignRandom, the paper's policy
		return ws[o.rng.Intn(len(ws))]
	}
}

// exhaustedLocked reports whether the function has a budget and has spent
// it. Caller holds o.mu.
func (o *Orchestrator) exhaustedLocked(function string) bool {
	b, ok := o.budgets[function]
	return ok && b.exhausted
}

// pickEnergyAwareLocked packs load onto powered nodes so the rest can stay
// power-gated. Preference order: (1) an idle, already-powered worker —
// zero boot cost; (2) a powered-down worker, woken on demand, when every
// powered worker is occupied and the power cap admits another node;
// (3) the least-loaded powered worker; (4) a powered-down worker even
// against a binding cap (the wake parks in the manager's FIFO and the job
// feels it as queue wait). All ties break by registration order; the
// policy draws no randomness, so its picks are independent of evaluation
// order. Without a power manager every worker counts as powered and the
// policy degrades to the fewest queued-plus-running jobs. noWake flips the preference for a
// budget-exhausted function: an already-powered worker (even a loaded one)
// always beats waking a node, so exhausted functions stop pulling hardware
// out of power gating. The policy scans: its order depends on pm.IsUp,
// power-plane state the orchestrator does not own and is not told about, so
// no index kept at loadChangedLocked could stay current. Caller holds o.mu.
func (o *Orchestrator) pickEnergyAwareLocked(ws []*workerSlot, noWake bool) *workerSlot {
	const maxInt = int(^uint(0) >> 1)
	var idleUp, down, leastUp *workerSlot
	leastLoad := maxInt
	for _, s := range ws {
		poweredUp := o.pm == nil || s.waking || o.pm.IsUp(s.id)
		load := s.load()
		if !poweredUp {
			if down == nil || s.rank < down.rank {
				down = s
			}
			continue
		}
		if load == 0 && (idleUp == nil || s.rank < idleUp.rank) {
			idleUp = s
		}
		if load < leastLoad || (load == leastLoad && s.rank < leastUp.rank) {
			leastUp, leastLoad = s, load
		}
	}
	switch {
	case idleUp != nil:
		return idleUp
	case noWake && leastUp != nil:
		return leastUp
	case down != nil && (leastUp == nil || o.pm.CanWake()):
		return down
	case leastUp != nil:
		return leastUp
	default:
		return down
	}
}

// SubmitTo enqueues an invocation on a specific worker's queue, under every
// policy (a deadline expiry or RemoveWorker may still move it off).
func (o *Orchestrator) SubmitTo(workerID, function string, args []byte) (int64, error) {
	o.mu.Lock()
	if o.draining.Load() {
		o.mu.Unlock()
		return 0, fmt.Errorf("core: orchestrator is draining")
	}
	s, ok := o.byID[workerID]
	if !ok {
		o.mu.Unlock()
		return 0, fmt.Errorf("core: unknown worker %q", workerID)
	}
	id, run := o.enqueueLocked(s, function, args, nil)
	o.mu.Unlock()
	if run != nil {
		run.run()
	}
	return id, nil
}

// newJobLocked accepts a submission: it allocates the job id, bumps the
// submission metrics, and counts the job pending — everything except
// placing the job on a queue. Caller holds o.mu.
func (o *Orchestrator) newJobLocked(function string, args []byte, cb func(Result)) Job {
	o.nextID++
	job := Job{ID: o.nextID, Function: function, Args: args, SubmittedAt: o.runtime.Now(), cb: cb}
	o.m.submitted.Inc()
	o.noteSubmitted(function)
	o.addPendingLocked(1)
	return job
}

// addPendingLocked moves the pending count by delta, republishes the
// jobs-pending gauge, and wakes Quiesce and Drain when the count reaches
// zero. Every change to the count goes through it. Caller holds o.mu.
func (o *Orchestrator) addPendingLocked(delta int) {
	n := o.pending.Add(int64(delta))
	o.m.pending.Set(float64(n))
	if n == 0 {
		o.idle.Broadcast()
	}
}

// enqueueLocked appends a new job to s's own queue and returns its id plus
// the dispatched attempt to run once o.mu is released (nil when the worker
// is already busy). Caller holds o.mu.
func (o *Orchestrator) enqueueLocked(s *workerSlot, function string, args []byte, cb func(Result)) (int64, *inflight) {
	job := o.newJobLocked(function, args, cb)
	o.pushJobLocked(s, job)
	return job.ID, o.maybeDispatchLocked(s)
}

// pushJobLocked appends one attempt to a worker's queue, keeping the
// queue-depth gauge current. Caller holds o.mu.
func (o *Orchestrator) pushJobLocked(s *workerSlot, job Job) {
	s.qpush(job)
	o.loadChangedLocked(s)
}

// maybeDispatchLocked pops the worker's next queued job if it is free and
// returns the pooled attempt record whose run() starts the worker on it.
// run() must be called after o.mu is released: RunJob can block (live
// workers write to TCP) and must never be entered while holding the
// orchestrator lock. Caller holds o.mu.
func (o *Orchestrator) maybeDispatchLocked(s *workerSlot) *inflight {
	if s.busy || s.qlen() == 0 || o.sealed || s.detached {
		return nil
	}
	if o.pm != nil && !s.bootPending {
		if s.waking {
			return nil // the manager's ready callback resumes this queue
		}
		if !o.pm.RequestUp(s.id, "wake-on-demand", s.qhead0().ID, func() { o.workerPowered(s) }) {
			// Powered down (or cap-parked): the wake is in flight and the
			// queued jobs wait it out — their queue waits absorb the boot.
			s.waking = true
			return nil
		}
	}
	return o.startLocked(s, s.qpop())
}

// startLocked starts the free worker s on job: see maybeDispatchLocked.
func (o *Orchestrator) startLocked(s *workerSlot, job Job) *inflight {
	s.busy = true
	o.loadChangedLocked(s)
	s.m.busy.Set(1)
	started := o.runtime.Now()
	s.bootPending = false
	fl := o.getInflightLocked()
	fl.job = job
	fl.slot = s
	fl.started = started
	if d := o.attempt.JobTimeout; d > 0 {
		// The callback captures the generation so a timer that outlives
		// this attempt (wall mode can fire it concurrently with the
		// settling done callback) finds a recycled record and stands down.
		gen := fl.gen
		fl.cancelTimeout = o.runtime.After(d, func() { o.deadlineExpired(fl, gen) })
	}
	return fl
}

// workerPowered is the power manager's ready callback: the wake requested
// for this worker has completed and it may dispatch. Runs outside both the
// manager's lock and (on entry) the orchestrator's.
func (o *Orchestrator) workerPowered(s *workerSlot) {
	o.mu.Lock()
	s.waking = false
	s.bootPending = true
	run := o.maybeDispatchLocked(s)
	if run == nil {
		// The queue emptied while the node booted (drain, or a seal's
		// TakeAll, took the jobs); hand the fresh node to the idle policy.
		s.bootPending = false
		o.noteWorkerIdleLocked(s)
	}
	o.mu.Unlock()
	if run != nil {
		run.run()
	}
}

// noteWorkerIdleLocked reports a genuinely idle worker (no queue, not
// executing, no wake in flight) to the power manager, starting its idle
// power-down countdown. No-op without a manager. Caller holds o.mu.
func (o *Orchestrator) noteWorkerIdleLocked(s *workerSlot) {
	if o.pm == nil || s.busy || s.waking || s.qlen() > 0 {
		return
	}
	o.pm.NoteIdle(s.id)
}

// settleAttemptLocked writes one finished attempt down, and is the only
// code that does: the collector record, the worker's health and breaker,
// the function's energy-budget charge, the per-worker attempt counter and
// the settle event. The outcome label (ok, error, timeout) comes from res
// alone, so no two sinks can disagree about it. What a worker's report and a
// deadline expiry do differently (the busy flag, power-cycling, queue
// reassignment, inflight recycling) stays with the callers, who hold o.mu.
func (o *Orchestrator) settleAttemptLocked(s *workerSlot, job Job, started, finished time.Duration, res Result) {
	oc := outcomeOK
	switch {
	case res.TimedOut:
		oc = outcomeTimeout
	case res.Err != "":
		oc = outcomeError
	}
	o.collector.Add(s.rec, trace.Record{
		JobID:      job.ID,
		Function:   job.Function,
		Attempt:    job.Attempt,
		Submitted:  job.SubmittedAt,
		Started:    started,
		Finished:   finished,
		Boot:       res.Boot,
		Overhead:   res.Overhead,
		Exec:       res.Exec,
		BootJoules: res.BootJoules,
		Joules:     res.Joules,
		Err:        res.Err,
		TimedOut:   res.TimedOut,
	})
	o.noteAttemptLocked(s, res.Err == "", res.TimedOut)
	o.chargeEnergyLocked(job.Function, res.Joules)
	s.m.attempts[oc].Inc()
}

// completed handles a worker's done callback: it settles the attempt,
// retries a failure while attempts remain, and puts the worker back to
// work. If the attempt's deadline already fired, the timer settled it (and
// possibly retried the job elsewhere); the late result is discarded and the
// no longer wedged worker just rejoins.
func (o *Orchestrator) completed(fl *inflight, res Result) {
	finished := o.runtime.Now()
	o.mu.Lock()
	s, job, started := fl.slot, fl.job, fl.started
	s.busy = false
	o.loadChangedLocked(s)
	s.m.busy.Set(0)
	var b batch
	var cb func(Result)
	if !fl.settled {
		if fl.cancelTimeout != nil {
			fl.cancelTimeout()
		}
		o.settleAttemptLocked(s, job, started, finished, res)
		if res.Err != "" && o.pm != nil {
			// A crashed worker can't be trusted warm: power-cycle it, so
			// the next dispatch (possibly this job's retry elsewhere) finds
			// a fresh environment.
			o.pm.NoteFault(s.id)
		}
		cb = o.resolveAttemptLocked(s, job, res, finished, &b)
	}
	// One batched drain per wake: every attempt this completion unblocks —
	// the retry's dispatch on another worker, and this worker's next queued
	// job or, left free, the backlog's head — starts after one unlock,
	// instead of a lock round-trip per dispatch. The common case (no retry)
	// fills only b.first and allocates nothing.
	if run := o.maybeDispatchLocked(s); run != nil {
		b.add(run)
	} else {
		o.pullLocked(&b)
		o.noteWorkerIdleLocked(s)
	}
	release := o.takeHandoffLocked(s)
	// Every reference to the record is dead — the worker's single done
	// call is this very frame, and the deadline timer was cancelled above
	// or has already fired (one still racing for the lock in wall mode is
	// gen-guarded) — so recycle it.
	o.putInflightLocked(fl)
	o.mu.Unlock()
	b.run()
	if release != nil {
		release(s.w)
	}
	if cb != nil {
		res.StartedAt, res.FinishedAt = started, finished
		cb(res)
	}
}

// deadlineExpired fires when an attempt's deadline passes before its
// worker reported back: the OP synthesizes a timed-out Result, leaves the
// wedged worker marked busy until (if ever) its late callback arrives, and
// reassigns the wedged worker's queued jobs so they do not wait behind a
// hang.
func (o *Orchestrator) deadlineExpired(fl *inflight, gen uint64) {
	o.mu.Lock()
	if fl.gen != gen || fl.settled {
		// gen mismatch: the attempt settled and its record was recycled (and
		// possibly reissued) before this wall-mode timer got the lock.
		o.mu.Unlock()
		return
	}
	fl.settled = true
	s := fl.slot
	job := fl.job
	now := o.runtime.Now()
	res := Result{
		Job:        job,
		WorkerID:   s.id,
		Err:        fmt.Sprintf("core: attempt %d of job %d exceeded its %v deadline on %s", job.Attempt, job.ID, o.attempt.JobTimeout, s.id),
		TimedOut:   true,
		StartedAt:  fl.started,
		FinishedAt: now,
	}
	o.settleAttemptLocked(s, job, fl.started, now, res)
	// fl is deliberately NOT recycled: the wedged worker still holds its
	// doneFn and may yet call it — the late-arrival path in completed
	// reclaims the record then.
	var b batch
	o.reassignQueueLocked(s, &b)
	cb := o.resolveAttemptLocked(s, job, res, now, &b)
	o.pullLocked(&b) // a tripped breaker may have made the ejected boards pickable
	o.mu.Unlock()
	b.run()
	if cb != nil {
		cb(res)
	}
}

// reassignQueueLocked moves a wedged (or just detached) worker's queued,
// not yet started jobs onto other workers (placeLocked). When it is the
// only attached worker there is nowhere to move them, so they stay put and
// wait for its late recovery. Caller holds o.mu.
func (o *Orchestrator) reassignQueueLocked(wedged *workerSlot, b *batch) {
	if wedged.qlen() == 0 || (len(o.slots) == 1 && o.slots[0] == wedged) {
		return
	}
	q := wedged.qtake()
	o.loadChangedLocked(wedged)
	for _, job := range q {
		o.placeLocked(job, wedged, b)
	}
}

// resolveAttemptLocked decides retry-versus-final for a finished attempt:
// it places a retry, or returns the job's completion callback when the
// outcome is final. Caller holds o.mu.
func (o *Orchestrator) resolveAttemptLocked(failedOn *workerSlot, job Job, res Result, finished time.Duration, b *batch) (cb func(Result)) {
	retry := res.Err != "" && job.Attempt+1 < o.attempt.MaxAttempts && !o.draining.Load()
	if retry {
		// The job stays pending: re-queue it on a different worker (a
		// fresh hardware environment — worker-local faults don't follow),
		// after the attempt's backoff delay.
		o.m.retries.Inc()
		next := job
		next.Attempt++
		if delay := o.retryDelayLocked(next.Attempt); delay > 0 {
			p := &parkedRetry{job: next, exclude: failedOn.id}
			o.parked[next.ID] = p
			p.cancel = o.runtime.After(delay, func() { o.requeueParked(next.ID) })
			return nil
		}
		o.placeLocked(next, failedOn, b)
		return nil
	}
	o.noteFinal(job, res, finished)
	o.addPendingLocked(-1)
	return job.cb
}

// retryDelayLocked computes attempt n's backoff: a jittered value in
// [d/2, d] with d = min(RetryBase·2^(n-1), retryMax). Zero when backoff is
// disabled. The jitter comes from the orchestrator's seeded RNG, so sim
// runs remain deterministic. Caller holds o.mu.
func (o *Orchestrator) retryDelayLocked(attempt int) time.Duration {
	if o.attempt.RetryBase <= 0 {
		return 0
	}
	shift := uint(attempt - 1)
	d := o.retryMax
	if shift < 62 {
		if exp := o.attempt.RetryBase << shift; exp > 0 && exp < d {
			d = exp
		}
	}
	half := d / 2
	return half + time.Duration(o.rng.Int63n(int64(half)+1))
}

// requeueParked places a backoff-parked job once its delay elapses, on a
// worker other than the one it failed on (the policy's pick once that one
// has left). A job abandoned by Drain is no longer parked and is skipped.
func (o *Orchestrator) requeueParked(id int64) {
	o.mu.Lock()
	p, ok := o.parked[id]
	if !ok {
		o.mu.Unlock()
		return
	}
	delete(o.parked, id)
	var b batch
	o.placeLocked(p.job, o.byID[p.exclude], &b)
	o.mu.Unlock()
	b.run()
}

// pickRetryWorkerLocked chooses a random breaker-eligible worker other
// than failed (unless there is no other choice). Least-loaded places
// retries through the backlog instead. Caller holds o.mu.
func (o *Orchestrator) pickRetryWorkerLocked(failed *workerSlot) *workerSlot {
	ws := o.assignableLocked()
	// O(1) other-worker check: the list either has someone besides failed,
	// or it is exactly [failed].
	hasOther := len(ws) > 1 || (len(ws) == 1 && ws[0] != failed)
	if !hasOther {
		if len(o.slots) == 1 {
			return o.slots[0]
		}
		// The failed worker is the only eligible one; any other worker is
		// still a fresher environment than re-running in place.
		ws = o.slots
	}
	for {
		s := ws[o.rng.Intn(len(ws))]
		if s != failed {
			return s
		}
	}
}

// noteAttemptLocked feeds one attempt's outcome into the worker's health
// record, trips or resets its breaker, and keeps the slot on the right
// side of the eligible/parole split. Caller holds o.mu.
func (o *Orchestrator) noteAttemptLocked(s *workerSlot, ok, timedOut bool) {
	h := &s.health
	if ok {
		h.completed++
		h.consec = 0
		if h.open {
			s.m.breakerTo[BreakerClosed].Inc()
			h.open = false
			// A half-open probe succeeded; a still-parked slot (probe work
			// arrived via SubmitTo or the all-breakers-open fallback) comes
			// off parole too.
			if s.parolePos >= 0 {
				heap.Remove(&o.parole, s.parolePos)
				o.addEligibleLocked(s)
			}
		}
		return
	}
	h.failed++
	if timedOut {
		h.timedOut++
	}
	h.consec++
	if o.attempt.BreakerThreshold > 0 && h.consec >= o.attempt.BreakerThreshold {
		if !h.open {
			s.m.breakerTo[BreakerOpen].Inc()
		}
		h.open = true
		h.reopenAt = o.runtime.Now() + o.attempt.BreakerProbe
		if s.eligPos >= 0 {
			o.removeEligibleLocked(s)
			heap.Push(&o.parole, s)
		} else if s.parolePos >= 0 {
			// Already parked; its reopen time moved later.
			heap.Fix(&o.parole, s.parolePos)
		}
	}
}

// Pending returns queued plus running (plus backoff-parked) jobs. It
// takes no lock, so the shard plane reads it on every routed submit.
func (o *Orchestrator) Pending() int { return int(o.pending.Load()) }

// Queued returns the total queued (not yet running) jobs across all
// workers' queues and the backlog: a running total, read without a lock,
// since the capacity aggregator and the per-shard queue-depth gauge poll
// it every tick.
func (o *Orchestrator) Queued() int { return int(o.queued.Load()) }

// StartArrivals begins the paper's arrival process: every interval, one
// job is added to each of sampleSize randomly-chosen queues (with
// replacement across ticks, without within a tick). gen produces each
// job's function name and arguments. Call the returned stop function to
// end the process; only one arrival process may run at a time. The whole
// tick — sampling, generation, enqueueing — happens atomically with
// respect to stop, so a stopped process never enqueues a tick it had
// already sampled.
func (o *Orchestrator) StartArrivals(interval time.Duration, sampleSize int, gen func(rng *rand.Rand) (string, []byte)) (stop func(), err error) {
	if interval <= 0 {
		return nil, fmt.Errorf("core: arrival interval must be positive")
	}
	if sampleSize <= 0 || sampleSize > len(o.slots) {
		return nil, fmt.Errorf("core: sample size %d outside [1,%d]", sampleSize, len(o.slots))
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.arrivalCancel != nil {
		return nil, fmt.Errorf("core: arrival process already running")
	}
	if o.draining.Load() {
		return nil, fmt.Errorf("core: orchestrator is draining")
	}
	stopped := false
	var tick func()
	tick = func() {
		var b batch
		o.mu.Lock()
		if stopped || o.draining.Load() {
			o.mu.Unlock()
			return
		}
		// Sample without replacement within the tick. The fleet can have
		// shrunk below sampleSize since validation (RemoveWorker); clamp
		// rather than index past the permutation.
		n := sampleSize
		if n > len(o.slots) {
			n = len(o.slots)
		}
		perm := o.rng.Perm(len(o.slots))
		targets := make([]*workerSlot, 0, n)
		for _, idx := range perm[:n] {
			targets = append(targets, o.slots[idx])
		}
		for _, s := range targets {
			fn, args := gen(o.rng)
			_, run := o.enqueueLocked(s, fn, args, nil)
			b.add(run)
		}
		o.arrivalCancel = o.runtime.After(interval, tick)
		o.mu.Unlock()
		b.run()
	}
	o.arrivalCancel = o.runtime.After(interval, tick)
	return func() {
		o.mu.Lock()
		defer o.mu.Unlock()
		stopped = true
		if o.arrivalCancel != nil {
			o.arrivalCancel()
			o.arrivalCancel = nil
		}
	}, nil
}

// Quiesce blocks until no jobs are pending. Live mode only: in sim mode
// the engine's Run drives the cluster instead, and calling Quiesce from
// the simulation thread would deadlock.
func (o *Orchestrator) Quiesce() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.pending.Load() > 0 {
		o.idle.Wait()
	}
}

// Drain gracefully shuts intake down: it stops the arrival process,
// rejects new submissions (Submit returns 0), and waits for pending work
// to finish. If ctx expires first, Drain abandons every job that has not
// started executing — queued and backoff-parked jobs — and returns them
// sorted by id; currently-executing jobs keep running in the background
// and are recorded normally when they finish. Abandoned jobs never invoke
// their completion callbacks. Live mode only, like Quiesce.
func (o *Orchestrator) Drain(ctx context.Context) []Job {
	o.mu.Lock()
	o.draining.Store(true)
	if o.arrivalCancel != nil {
		o.arrivalCancel()
		o.arrivalCancel = nil
	}
	if o.pm != nil {
		// Stop the power plane first: parked wakes are cancelled (their
		// jobs are about to be abandoned below), idle nodes power off now,
		// and a wake completing mid-drain powers straight back down
		// instead of resurrecting a worker.
		o.pm.Drain()
	}
	// cond.Wait cannot select on ctx; poke the cond when ctx expires.
	stopWatch := context.AfterFunc(ctx, func() {
		o.mu.Lock()
		o.idle.Broadcast()
		o.mu.Unlock()
	})
	defer stopWatch()
	for o.pending.Load() > 0 && ctx.Err() == nil {
		o.idle.Wait()
	}
	if o.pending.Load() == 0 {
		o.mu.Unlock()
		return nil
	}
	abandoned := o.takeAllLocked()
	sort.Slice(abandoned, func(i, j int) bool { return abandoned[i].ID < abandoned[j].ID })
	o.mu.Unlock()
	return abandoned
}

// Draining reports whether Drain has been called.
func (o *Orchestrator) Draining() bool { return o.draining.Load() }

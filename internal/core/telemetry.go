package core

import (
	"time"

	"microfaas/internal/telemetry"
)

// Metric names the orchestrator owns (see DESIGN.md §7 for the full
// catalogue and the label-cardinality rules).
const (
	metricSubmitted   = "microfaas_jobs_submitted_total"
	metricPending     = "microfaas_jobs_pending"
	metricRetries     = "microfaas_retries_total"
	metricAttempts    = "microfaas_attempts_total"
	metricQueueDepth  = "microfaas_queue_depth"
	metricWorkerBusy  = "microfaas_worker_busy"
	metricBreaker     = "microfaas_breaker_transitions_total"
	metricInvocations = "microfaas_function_invocations_total"
	metricLatency     = "microfaas_invocation_latency_seconds"
	metricFnSubmitted = "microfaas_function_submitted_total"

	metricBudgetLimit     = "microfaas_function_energy_budget_joules"
	metricBudgetSpent     = "microfaas_function_budget_spent_joules"
	metricBudgetExhausted = "microfaas_function_budget_exhausted"
	metricBudgetThrottled = "microfaas_budget_throttled_total"
)

// orchMetrics holds the orchestrator's pre-created metric handles. Every
// handle type no-ops on nil, and a nil map lookup yields a nil handle, so
// the zero orchMetrics is the disabled instrumentation path — call sites
// need no guards.
type orchMetrics struct {
	submitted *telemetry.Counter
	pending   *telemetry.Gauge
	retries   *telemetry.Counter
	latency   *telemetry.Histogram
	// energy-budget series: one counter for throttle holds, and a gauge
	// triple per budgeted function (filled as budgets are installed)
	budgetThrottled *telemetry.Counter
	budgetLimit     map[string]*telemetry.Gauge
	budgetSpent     map[string]*telemetry.Gauge
	budgetExhausted map[string]*telemetry.Gauge
}

// initTelemetry pre-creates the orchestrator's metric families; each
// worker's series are created as it registers (initWorkerTelemetry), so
// every series is present (at zero) from the first scrape.
func (o *Orchestrator) initTelemetry(tel *telemetry.Telemetry) {
	o.tel = tel
	if tel == nil {
		return
	}
	reg := tel.Registry()
	o.m = orchMetrics{
		submitted: reg.Counter(metricSubmitted, "Jobs accepted by the orchestration platform."),
		pending:   reg.Gauge(metricPending, "Jobs queued, running, or parked for retry backoff."),
		retries:   reg.Counter(metricRetries, "Failed attempts re-queued onto another worker."),
		latency: reg.Histogram(metricLatency,
			"End-to-end latency of successful invocations (submit to final result).",
			telemetry.LogBuckets(0.001, 60, 14)),
		budgetThrottled: reg.Counter(metricBudgetThrottled,
			"Submissions held before queueing because their function's energy budget was spent."),
		budgetLimit:     make(map[string]*telemetry.Gauge),
		budgetSpent:     make(map[string]*telemetry.Gauge),
		budgetExhausted: make(map[string]*telemetry.Gauge),
	}
}

// workerMetrics is one worker's metric series, held on its slot so a
// settle or a queue change reaches them without a lookup by worker id.
// The zero value (telemetry off) is all nil handles, which no-op.
type workerMetrics struct {
	queueDepth, busy *telemetry.Gauge
	attempts         map[string]*telemetry.Counter // result → series
	breakerTo        map[string]*telemetry.Counter // state → series
}

// initWorkerTelemetry (re-)creates one worker's metric series. Called as
// a worker registers, at construction or from AddWorker — the registry
// returns the existing series for a repeated (name, labels) pair, so a
// worker re-homed back to its original shard resumes its old counters.
func (o *Orchestrator) initWorkerTelemetry(s *workerSlot) {
	if o.tel == nil {
		return
	}
	reg := o.tel.Registry()
	id := s.id
	s.m.queueDepth = reg.Gauge(metricQueueDepth, "Queued (not yet running) jobs per worker.", "worker", id)
	s.m.busy = reg.Gauge(metricWorkerBusy, "1 while the worker is executing a job.", "worker", id)
	s.m.attempts = map[string]*telemetry.Counter{}
	for _, result := range []string{"ok", "error", "timeout"} {
		s.m.attempts[result] = reg.Counter(metricAttempts,
			"Finished attempts per worker and outcome (timeouts are deadline expiries).",
			"worker", id, "result", result)
	}
	s.m.breakerTo = map[string]*telemetry.Counter{}
	for _, state := range []string{"open", "closed"} {
		s.m.breakerTo[state] = reg.Counter(metricBreaker,
			"Circuit-breaker transitions per worker.", "worker", id, "to", state)
	}
}

// emit appends one lifecycle event stamped with the cluster clock. Callers
// may hold o.mu: the event log's lock is a leaf.
func (o *Orchestrator) emit(typ string, job Job, worker, detail string) {
	if o.tel == nil {
		return
	}
	o.tel.Emit(o.runtime.Now(), typ, job.ID, job.Function, worker, job.Attempt, detail)
}

// noteSubmitted bumps the per-function submission counter — the
// arrival-rate tracker's source series. Per-function series are looked up
// per call, so a family only carries functions the workload actually
// uses; finding a series that exists costs no validation and no
// allocation (telemetry.Registry's hit path).
func (o *Orchestrator) noteSubmitted(function string) {
	if o.tel == nil {
		return
	}
	o.tel.Registry().Counter(metricFnSubmitted,
		"Jobs submitted per function (before scheduling or retries).",
		"function", function).Inc()
}

// noteBudgetLocked refreshes one function's budget gauge triple, creating
// the series on the budget's first installation. Caller holds o.mu, which
// serializes the lazy map fill.
func (o *Orchestrator) noteBudgetLocked(function string, limit, spent float64, exhausted bool) {
	if o.tel == nil {
		return
	}
	lg, ok := o.m.budgetLimit[function]
	if !ok {
		reg := o.tel.Registry()
		lg = reg.Gauge(metricBudgetLimit,
			"Configured per-function energy cap (0 after budget removal).",
			"function", function)
		o.m.budgetLimit[function] = lg
		o.m.budgetSpent[function] = reg.Gauge(metricBudgetSpent,
			"Metered joules charged against the function's budget (all attempts).",
			"function", function)
		o.m.budgetExhausted[function] = reg.Gauge(metricBudgetExhausted,
			"1 while the function's energy budget is spent (deprioritized/throttled).",
			"function", function)
	}
	lg.Set(limit)
	o.m.budgetSpent[function].Set(spent)
	x := 0.0
	if exhausted {
		x = 1
	}
	o.m.budgetExhausted[function].Set(x)
}

// noteFinal records a job's final outcome: the per-function counter and,
// on success, the end-to-end latency sample.
func (o *Orchestrator) noteFinal(job Job, res Result, finished time.Duration) {
	if o.tel == nil {
		return
	}
	result := "ok"
	if res.Err != "" {
		result = "error"
	}
	o.tel.Registry().Counter(metricInvocations,
		"Final per-function outcomes (after any retries).",
		"function", job.Function, "result", result).Inc()
	if res.Err == "" {
		o.m.latency.Observe((finished - job.SubmittedAt).Seconds())
	}
}

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
)

// orchMetrics holds the orchestrator's pre-created metric handles and
// the handles of its per-worker and per-function families, resolved once
// here so a worker's registration or a job's count asks its family by
// label values alone. Every handle type no-ops on nil, so the zero
// orchMetrics is the disabled instrumentation path — call sites need no
// guards.
type orchMetrics struct {
	submitted *telemetry.Counter
	pending   *telemetry.Gauge
	retries   *telemetry.Counter
	latency   *telemetry.Histogram
	// per-worker families (label worker, then result or to)
	queueDepth, busy, attempts, breakerTo *telemetry.Family
	// per-function families (label function, then result)
	fnSubmitted, invocations *telemetry.Family
	// energy-budget series: a gauge triple per budgeted function
	// (created as budgets are installed)
	budgetLimit, budgetSpent, budgetExhaust *telemetry.Family
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
		queueDepth: reg.GaugeFamily(metricQueueDepth, "Queued (not yet running) jobs per worker.", "worker"),
		busy:       reg.GaugeFamily(metricWorkerBusy, "1 while the worker is executing a job.", "worker"),
		attempts: reg.CounterFamily(metricAttempts,
			"Finished attempts per worker and outcome (timeouts are deadline expiries).", "worker", "result"),
		breakerTo: reg.CounterFamily(metricBreaker, "Circuit-breaker transitions per worker.", "worker", "to"),
		fnSubmitted: reg.CounterFamily(metricFnSubmitted,
			"Jobs submitted per function (before scheduling or retries).", "function"),
		invocations: reg.CounterFamily(metricInvocations,
			"Final per-function outcomes (after any retries).", "function", "result"),
		budgetLimit: reg.GaugeFamily(metricBudgetLimit,
			"Configured per-function energy cap (0 after budget removal).", "function"),
		budgetSpent: reg.GaugeFamily(metricBudgetSpent,
			"Metered joules charged against the function's budget (all attempts).", "function"),
		budgetExhaust: reg.GaugeFamily(metricBudgetExhausted,
			"1 while the function's energy budget is spent (deprioritized).", "function"),
	}
}

// outcome is how an attempt settled, the index of its attempts series.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeError
	outcomeTimeout
	numOutcomes
)

// outcomeNames are the outcomes' result labels and settle-event details.
var outcomeNames = [numOutcomes]string{"ok", "error", "timeout"}

// workerMetrics is one worker's metric series, held by its slot so a
// settle or a queue change reaches them without a lookup by worker id:
// outcome and breaker counters are arrays indexed by outcome and by the
// BreakerState a transition enters. With telemetry off every slot shares
// noWorkerMetrics, whose nil handles no-op.
type workerMetrics struct {
	queueDepth, busy *telemetry.Gauge
	attempts         [numOutcomes]*telemetry.Counter
	breakerTo        [BreakerOpen + 1]*telemetry.Counter
}

// noWorkerMetrics is every slot's series while telemetry is off. Nothing
// writes it.
var noWorkerMetrics workerMetrics

// initWorkerTelemetry (re-)creates worker id's series into m. Called as a
// worker registers, at construction or from AddWorker — a family returns
// the existing series for repeated label values, so a worker re-homed
// back to its original shard resumes its old counters.
func (o *Orchestrator) initWorkerTelemetry(id string, m *workerMetrics) {
	m.queueDepth = o.m.queueDepth.Gauge(id)
	m.busy = o.m.busy.Gauge(id)
	for oc, result := range outcomeNames {
		m.attempts[oc] = o.m.attempts.Counter(id, result)
	}
	for _, st := range []BreakerState{BreakerOpen, BreakerClosed} {
		m.breakerTo[st] = o.m.breakerTo.Counter(id, st.String())
	}
}

// noteSubmitted bumps the per-function submission counter — the
// arrival-rate tracker's source series. Per-function series are looked up
// per call, so a family only carries functions the workload actually
// uses; finding a series that exists allocates nothing.
func (o *Orchestrator) noteSubmitted(function string) {
	o.m.fnSubmitted.Counter(function).Inc()
}

// noteBudgetLocked refreshes one function's budget gauge triple, creating
// the series on the budget's first installation. Caller holds o.mu.
func (o *Orchestrator) noteBudgetLocked(function string, limit, spent float64, exhausted bool) {
	o.m.budgetLimit.Gauge(function).Set(limit)
	o.m.budgetSpent.Gauge(function).Set(spent)
	x := 0.0
	if exhausted {
		x = 1
	}
	o.m.budgetExhaust.Gauge(function).Set(x)
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
	o.m.invocations.Counter(job.Function, result).Inc()
	if res.Err == "" {
		o.m.latency.Observe((finished - job.SubmittedAt).Seconds())
	}
}

// Package telemetry is the platform's observability layer: a
// dependency-free metrics registry with Prometheus text-format exposition
// and a ring-buffered structured event stream covering the invocation
// lifecycle (submit → queue → assign → boot → exec → settle).
//
// The paper's headline claim is an energy number — 5.7 J/function on the
// SBC cluster — so energy is a first-class exported signal here, not a
// post-hoc computation: workers attribute metered joules to the function
// that consumed them, and the gateway serves the running counters at
// GET /metrics (microfaas_function_energy_joules_total{function=...}).
//
// Everything in this package is nil-safe: a nil *Telemetry, *Registry,
// *Counter, *Gauge, *Histogram, or *EventLog turns every method into a
// no-op, so instrumented code paths need no guards and a disabled
// telemetry layer costs one nil check per call site. Telemetry never
// consumes randomness or schedules events, so enabling it leaves seeded
// simulation runs bit-identical.
package telemetry

import "time"

// Lifecycle event types, in the order one invocation moves through them.
// A retried job loops back to EventQueue with a higher attempt number.
const (
	// EventSubmit: the OP accepted a new job.
	EventSubmit = "submit"
	// EventQueue: an attempt landed on a specific worker's queue
	// (the first time, on retry, and on wedged-queue reassignment).
	EventQueue = "queue"
	// EventAssign: the worker was dispatched onto the attempt.
	EventAssign = "assign"
	// EventBoot: the worker began its power-on/boot phase.
	EventBoot = "boot"
	// EventExec: the worker began executing the function.
	EventExec = "exec"
	// EventSettle: the attempt finished — completed, failed, or timed out.
	EventSettle = "settle"
)

// Alert event types appended by the SLO engine (internal/tsdb) when a
// burn-rate page transitions. They live in the store's own alert ring,
// not the per-shard lifecycle rings, so alert history survives lifecycle
// churn; the Function field carries the rule name and Detail the burn
// numbers at the transition.
const (
	// EventAlertFiring: a burn-rate page crossed its threshold on both
	// windows.
	EventAlertFiring = "alert_firing"
	// EventAlertResolved: a firing page dropped back below threshold.
	EventAlertResolved = "alert_resolved"
)

// DefaultEventCapacity is the size of a Telemetry's event ring. Older
// events are overwritten.
const DefaultEventCapacity = 4096

// Telemetry bundles the metrics registry and the event log. The zero of
// *Telemetry (nil) is a valid, fully disabled instance.
type Telemetry struct {
	registry *Registry
	events   *EventLog
}

// New returns an enabled Telemetry with a DefaultEventCapacity event ring.
func New() *Telemetry {
	return &Telemetry{registry: NewRegistry(), events: NewEventLog(DefaultEventCapacity)}
}

// Registry returns the metrics registry (nil when telemetry is disabled).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.registry
}

// Events returns the event log (nil when telemetry is disabled).
func (t *Telemetry) Events() *EventLog {
	if t == nil {
		return nil
	}
	return t.events
}

// Emit appends one lifecycle event stamped at cluster-clock offset at,
// written in place into its ring slot.
func (t *Telemetry) Emit(at time.Duration, typ string, job int64, function, worker string, attempt int, detail string) {
	if t == nil {
		return
	}
	l := t.events
	l.mu.Lock()
	ev := l.slotLocked()
	ev.AtMs = float64(at) / float64(time.Millisecond)
	ev.Type = typ
	ev.Job = job
	ev.Function = function
	ev.Worker = worker
	ev.Attempt = attempt
	ev.Detail = detail
	l.mu.Unlock()
}

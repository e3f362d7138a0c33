package core

import (
	"time"

	"microfaas/internal/tracing"
)

// Orchestrator-side span recording. These helpers mirror the telemetry
// emit path: they are callable while holding o.mu (the tracer's lock is a
// leaf), and every method is a no-op on a nil tracer or an untraced job,
// so the disabled path costs one nil/validity check and — like telemetry —
// never touches the RNG or the clock beyond reads, keeping seeded sim
// runs bit-identical.

// recordSpan stamps s with the job's identity and this shard's label and
// hands it to the tracer.
func (o *Orchestrator) recordSpan(job Job, s tracing.Span) {
	s.Job, s.Function, s.Attempt, s.Shard = job.ID, job.Function, job.Attempt, o.shardLabel
	o.tracer.Record(job.Trace, s)
}

// span records one orchestrator-side interval span for the job.
func (o *Orchestrator) span(job Job, phase tracing.Phase, worker string, start, end time.Duration, detail string) {
	o.recordSpan(job, tracing.Span{Phase: phase, Worker: worker, Start: start, End: end, Detail: detail})
}

// spanMarker records a zero-length annotation span (submit, dispatch,
// settle) at the given instant.
func (o *Orchestrator) spanMarker(job Job, phase tracing.Phase, worker string, at time.Duration, detail string) {
	o.span(job, phase, worker, at, at, detail)
}

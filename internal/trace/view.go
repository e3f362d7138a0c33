package trace

import (
	"sort"
	"time"
)

// The trace view: one invocation's lifecycle, rendered on demand from the
// rows the collectors already hold. Every attempt's row carries its
// worker, its six durations, its energies and its error, which is all a
// trace shows, so every job in the record window has a trace and none is
// sampled. A job's rows can sit in more than one collector (a sharded
// plane keeps one per shard, and a stolen retry settles on the thief), so
// the view reads every collector it is given.
//
// Each attempt renders as its wait (queue before attempt 0, retry before
// each later one), its boot, its exec (overhead plus execution) and a
// zero-length settle marker, plus a fault marker when it failed. The wait
// runs from the previous attempt's finish (or the submission) to the
// attempt's start, boot and exec follow on from the start, so the phases
// telescope: their durations plus Breakdown's Unattributed equal the
// job's end-to-end latency exactly. Unattributed is what no worker
// reported: a live round trip's network and reply, a microVM host's
// contention stretch, a timed-out attempt's whole run. A power-manager
// wake folds into the wait.

// Phase names the stretch of an invocation a span covers.
type Phase string

const (
	// PhaseInvocation is the root span: submission to the last held
	// attempt's finish.
	PhaseInvocation Phase = "invocation"
	// PhaseQueue is the wait from submission to the first attempt's start.
	PhaseQueue Phase = "queue"
	// PhaseBoot is the worker's power-on and OS boot ("cold"), zero-length
	// for a warm start ("warm"), with the joules the boot drew.
	PhaseBoot Phase = "boot"
	// PhaseExec covers protocol overhead plus function execution, with the
	// rest of the attempt's joules.
	PhaseExec Phase = "exec"
	// PhaseSettle marks the orchestrator writing the attempt down
	// (zero-length; its detail is the outcome: ok, error or timeout).
	PhaseSettle Phase = "settle"
	// PhaseRetry is the wait from a failed attempt's finish to the next
	// attempt's start: backoff plus queueing.
	PhaseRetry Phase = "retry"
	// PhaseFault marks a failed attempt (zero-length, with its error).
	PhaseFault Phase = "fault"
)

// phaseOrder is the display order of the non-root phases.
var phaseOrder = []Phase{PhaseQueue, PhaseBoot, PhaseExec, PhaseSettle, PhaseRetry, PhaseFault}

// Span is one stretch of an invocation's lifecycle. Start and End are
// offsets on the cluster clock.
type Span struct {
	// Phase classifies the stretch.
	Phase Phase `json:"phase"`
	// Job is the invocation's job id, which is also its trace's id.
	Job int64 `json:"job"`
	// Function names the invoked workload function.
	Function string `json:"function,omitempty"`
	// Worker names the worker the attempt ran on (empty for waits).
	Worker string `json:"worker,omitempty"`
	// Attempt is the attempt the span belongs to (0 = first).
	Attempt int `json:"attempt"`
	// Start is the span's opening offset on the cluster clock.
	Start time.Duration `json:"start_ns"`
	// End is the span's closing offset on the cluster clock.
	End time.Duration `json:"end_ns"`
	// EnergyJ is the metered joules the phase drew (boot and exec).
	EnergyJ float64 `json:"energy_j,omitempty"`
	// Detail annotates the span: "cold"/"warm" boots, settle outcomes.
	Detail string `json:"detail,omitempty"`
	// Err carries the failure a fault marker records.
	Err string `json:"err,omitempty"`
}

// Duration is the span's length on the cluster clock.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Trace is one job's lifecycle: the root span and its phases in order.
type Trace struct {
	// Root spans submission to the last held attempt's finish, naming
	// that attempt, its worker and its error.
	Root Span `json:"root"`
	// Spans holds the phases, attempt by attempt.
	Spans []Span `json:"spans"`
}

// Traces renders every job the collectors hold a row of, ordered by when
// its last held attempt finished (ties by job id).
func Traces(colls ...*Collector) []Trace {
	byJob := map[int64][]Record{}
	var order []int64
	for _, c := range colls {
		c.mu.Lock()
		c.eachLocked(func(r Record) {
			if _, ok := byJob[r.JobID]; !ok {
				order = append(order, r.JobID)
			}
			byJob[r.JobID] = append(byJob[r.JobID], r)
		})
		c.mu.Unlock()
	}
	out := make([]Trace, 0, len(order))
	for _, job := range order {
		out = append(out, render(byJob[job]))
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Root.End != out[j].Root.End {
			return out[i].Root.End < out[j].Root.End
		}
		return out[i].Root.Job < out[j].Root.Job
	})
	return out
}

// TraceOf renders one job's trace from its rows in the collectors, and
// reports false when none holds a row of it: the job never ran, or every
// attempt has left the record window.
func TraceOf(job int64, colls ...*Collector) (Trace, bool) {
	var recs []Record
	for _, c := range colls {
		c.mu.Lock()
		c.eachLocked(func(r Record) {
			if r.JobID == job {
				recs = append(recs, r)
			}
		})
		c.mu.Unlock()
	}
	if len(recs) == 0 {
		return Trace{}, false
	}
	return render(recs), true
}

// Slowest returns up to n of the traces (all of them when n <= 0) by
// descending end-to-end latency, ties in their given order.
func Slowest(traces []Trace, n int) []Trace {
	sorted := append([]Trace(nil), traces...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Root.Duration() > sorted[j].Root.Duration()
	})
	if n > 0 && len(sorted) > n {
		sorted = sorted[:n]
	}
	return sorted
}

// render builds one job's trace from its rows.
func render(recs []Record) Trace {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Attempt < recs[j].Attempt })
	first, last := recs[0], recs[len(recs)-1]
	tr := Trace{Root: Span{
		Phase: PhaseInvocation, Job: first.JobID, Function: first.Function,
		Worker: last.Worker, Attempt: last.Attempt,
		Start: first.Submitted, End: last.Finished, Err: last.Err,
	}}
	tr.Spans = make([]Span, 0, 5*len(recs))
	prev := first.Submitted
	for _, r := range recs {
		at := func(p Phase, worker string, start, end time.Duration, joules float64, detail string) Span {
			return Span{Phase: p, Job: r.JobID, Function: r.Function, Worker: worker, Attempt: r.Attempt,
				Start: start, End: end, EnergyJ: joules, Detail: detail}
		}
		wait := PhaseQueue
		if r.Attempt > 0 {
			wait = PhaseRetry
		}
		boot, outcome := "cold", "ok"
		if r.Boot == 0 {
			boot = "warm"
		}
		switch {
		case r.TimedOut:
			outcome = "timeout"
		case r.Err != "":
			outcome = "error"
		}
		bootEnd := r.Started + r.Boot
		tr.Spans = append(tr.Spans,
			at(wait, "", prev, r.Started, 0, ""),
			at(PhaseBoot, r.Worker, r.Started, bootEnd, r.BootJoules, boot),
			at(PhaseExec, r.Worker, bootEnd, bootEnd+r.Overhead+r.Exec, r.Joules-r.BootJoules, "overhead+exec"),
			at(PhaseSettle, r.Worker, r.Finished, r.Finished, 0, outcome))
		if r.Err != "" {
			fault := at(PhaseFault, r.Worker, r.Finished, r.Finished, 0, "")
			fault.Err = r.Err
			tr.Spans = append(tr.Spans, fault)
		}
		prev = r.Finished
	}
	return tr
}

// PhaseStat aggregates one phase's share of a trace: total duration,
// total joules, and the number of spans merged (more than one when the
// job was attempted more than once).
type PhaseStat struct {
	// Phase identifies the lifecycle phase aggregated here.
	Phase Phase `json:"phase"`
	// Duration is the phase's total time on the cluster clock.
	Duration time.Duration `json:"duration_ns"`
	// EnergyJ is the phase's total metered energy in joules.
	EnergyJ float64 `json:"energy_j"`
	// Count is the number of spans merged into this row.
	Count int `json:"count"`
}

// Breakdown is a trace's critical-path account: phase durations plus
// Unattributed equal Latency, and phase joules sum to EnergyJ, the
// metered energy of every held attempt.
type Breakdown struct {
	// Job is the invocation's job id.
	Job int64 `json:"job"`
	// Function names the invoked workload function.
	Function string `json:"function"`
	// Worker is the last held attempt's worker.
	Worker string `json:"worker,omitempty"`
	// Attempts counts executions (1 = no retries).
	Attempts int `json:"attempts"`
	// Err is the last held attempt's failure, empty on success.
	Err string `json:"err,omitempty"`
	// Start is when the invocation was submitted, on the cluster clock.
	Start time.Duration `json:"start_ns"`
	// End is when the last held attempt finished.
	End time.Duration `json:"end_ns"`
	// Latency is End - Start: the end-to-end invocation latency.
	Latency time.Duration `json:"latency_ns"`
	// Phases lists only the phases present, in display order.
	Phases []PhaseStat `json:"phases"`
	// Unattributed is the part of Latency no worker reported (see the
	// view's doc), clamped at zero.
	Unattributed time.Duration `json:"unattributed_ns"`
	// EnergyJ is the invocation's total metered energy in joules.
	EnergyJ float64 `json:"energy_j"`
}

// Breakdown computes the trace's critical-path account.
func (tr Trace) Breakdown() Breakdown {
	b := Breakdown{
		Job:      tr.Root.Job,
		Function: tr.Root.Function,
		Worker:   tr.Root.Worker,
		Attempts: tr.Root.Attempt + 1,
		Err:      tr.Root.Err,
		Start:    tr.Root.Start,
		End:      tr.Root.End,
		Latency:  tr.Root.Duration(),
	}
	byPhase := map[Phase]*PhaseStat{}
	var covered time.Duration
	for _, s := range tr.Spans {
		st, ok := byPhase[s.Phase]
		if !ok {
			st = &PhaseStat{Phase: s.Phase}
			byPhase[s.Phase] = st
		}
		st.Duration += s.Duration()
		st.EnergyJ += s.EnergyJ
		st.Count++
		covered += s.Duration()
		b.EnergyJ += s.EnergyJ
	}
	for _, p := range phaseOrder {
		if st, ok := byPhase[p]; ok {
			b.Phases = append(b.Phases, *st)
		}
	}
	if gap := b.Latency - covered; gap > 0 {
		b.Unattributed = gap
	}
	return b
}

// Tracer is an empty stand-in for the sampled span store the view
// replaced: the Tracer fields that still take one (cluster.LiveOptions,
// gateway.Options, tsdb.Config) are read by nothing, so code written
// against them keeps compiling until it drops them.
type Tracer struct{}

// Package tracing is the platform's distributed-tracing layer: a
// dependency-free span model over the cluster clock (virtual in sim mode,
// wall in live mode), a bounded in-memory span store, head-based sampling,
// and exporters for newline-delimited JSON and the Chrome trace_event
// format (loadable in Perfetto / chrome://tracing).
//
// The paper's headline numbers are per-invocation lifecycle
// decompositions — 5.7 J/function, the 1.51 s ARM boot, Fig. 1's
// boot-phase breakdown — so a trace here is exactly one invocation's
// lifecycle: a root span covering submit→settle and one child span per
// typed phase (submit, queue, dispatch, boot, exec, settle, reboot, plus
// retry/fault annotations). Worker-side boot and exec spans carry the
// joules their phase consumed, computed from power.Meter snapshots at the
// span boundaries, so a trace's phase energies sum to the invocation's
// metered energy the same way its phase latencies sum to the end-to-end
// latency (see Summarize).
//
// Everything is nil-safe: a nil *Tracer turns every method into a no-op
// and StartTrace returns the invalid Context, so instrumented code paths
// cost one nil check when tracing is disabled. The tracer never draws
// randomness and never schedules events — sampling is a hash of the
// deterministic trace id — so enabling it leaves seeded simulation runs
// bit-identical.
package tracing

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"
)

// TraceID identifies one invocation's trace. Zero is the invalid id.
type TraceID uint64

// SpanID identifies one span within a trace. Zero is the invalid id.
type SpanID uint64

// String renders the id as 16 hex digits (the W3C traceparent style,
// truncated to 64 bits).
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// String renders the id as 16 hex digits.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseTraceID parses the 16-hex-digit form produced by TraceID.String.
func ParseTraceID(s string) (TraceID, error) {
	n, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("tracing: bad trace id %q: %w", s, err)
	}
	return TraceID(n), nil
}

// MarshalJSON renders the id as a hex string: 64-bit ids do not survive
// JSON's float64 numbers.
func (id TraceID) MarshalJSON() ([]byte, error) { return []byte(`"` + id.String() + `"`), nil }

// UnmarshalJSON parses the hex-string form.
func (id *TraceID) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return fmt.Errorf("tracing: bad trace id %s", b)
	}
	parsed, err := ParseTraceID(s)
	if err != nil {
		return err
	}
	*id = parsed
	return nil
}

// MarshalJSON renders the id as a hex string.
func (id SpanID) MarshalJSON() ([]byte, error) { return []byte(`"` + id.String() + `"`), nil }

// UnmarshalJSON parses the hex-string form.
func (id *SpanID) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return fmt.Errorf("tracing: bad span id %s", b)
	}
	n, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return fmt.Errorf("tracing: bad span id %q: %w", s, err)
	}
	*id = SpanID(n)
	return nil
}

// Phase types the lifecycle position a span covers. The first seven are
// the invocation's ordered phases; retry and fault are annotations a
// failed attempt adds.
type Phase string

const (
	// PhaseInvocation is the root span: the whole submit→settle lifecycle.
	PhaseInvocation Phase = "invocation"
	// PhaseSubmit marks the OP accepting the job (zero-length).
	PhaseSubmit Phase = "submit"
	// PhaseQueue covers the wait on a worker's queue, per attempt.
	PhaseQueue Phase = "queue"
	// PhaseDispatch marks the OP handing the job to its worker.
	PhaseDispatch Phase = "dispatch"
	// PhaseBoot covers the worker's power-on/OS-boot (cold starts only).
	PhaseBoot Phase = "boot"
	// PhaseExec covers protocol overhead plus function execution.
	PhaseExec Phase = "exec"
	// PhaseSettle marks the OP recording the attempt's outcome.
	PhaseSettle Phase = "settle"
	// PhaseReboot marks the worker's post-job power transition.
	PhaseReboot Phase = "reboot"
	// PhaseRetry covers the backoff wait between a failed attempt and its
	// re-queue.
	PhaseRetry Phase = "retry"
	// PhaseFault annotates a failed or timed-out attempt (zero-length).
	PhaseFault Phase = "fault"
	// PhaseSteal marks a queued job migrating to another control-plane
	// shard (zero-length; the job's queue span keeps covering the whole
	// wait, so phase latencies still telescope to end-to-end latency).
	PhaseSteal Phase = "steal"
	// PhaseAlert annotates an SLO burn-rate page transition (zero-length,
	// recorded by internal/tsdb's SLO engine, not part of any invocation's
	// lifecycle — alert traces carry the rule name as their function).
	PhaseAlert Phase = "alert"
	// PhaseThrottle covers the hold a submission serves before entering a
	// queue because its function's energy budget is exhausted.
	PhaseThrottle Phase = "throttle"
)

// PhaseOrder returns the canonical display order of the non-root phases.
func PhaseOrder() []Phase {
	return []Phase{PhaseSubmit, PhaseThrottle, PhaseQueue, PhaseDispatch,
		PhaseBoot, PhaseExec, PhaseSettle, PhaseRetry, PhaseFault, PhaseSteal,
		PhaseReboot}
}

// Context is the propagated trace reference: which trace a span belongs
// to and which span is its parent. The zero Context is invalid and makes
// every recording call a no-op, so untraced jobs cost nothing.
type Context struct {
	// Trace is the owning trace's id (0 = invalid/untraced).
	Trace TraceID `json:"trace"`
	// Span is the parent span new children attach under.
	Span SpanID `json:"span"`
}

// Valid reports whether the context refers to a real trace.
func (c Context) Valid() bool { return c.Trace != 0 }

// Wire returns the context's wire-protocol form: hex trace and span ids,
// both empty when the context is invalid (untraced jobs add no bytes to
// the request frame).
func (c Context) Wire() (traceID, spanID string) {
	if !c.Valid() {
		return "", ""
	}
	return c.Trace.String(), c.Span.String()
}

// ContextFromWire parses the wire form back into a Context; malformed or
// empty input yields the invalid Context (a peer without tracing simply
// doesn't record).
func ContextFromWire(traceID, spanID string) Context {
	if traceID == "" {
		// The common untraced case: skip the parse so it costs nothing
		// (ParseTraceID would build and discard an error per call).
		return Context{}
	}
	tr, err := ParseTraceID(traceID)
	if err != nil {
		return Context{}
	}
	var c Context
	c.Trace = tr
	if sp, err := strconv.ParseUint(spanID, 16, 64); err == nil {
		c.Span = SpanID(sp)
	}
	return c
}

// Span is one recorded lifecycle interval. Start and End are offsets on
// the cluster clock; EnergyJ is the metered joules the phase consumed
// (boot and exec spans on metered workers; zero elsewhere).
type Span struct {
	// Trace is the owning trace's id.
	Trace TraceID `json:"trace"`
	// ID is the span's trace-unique id.
	ID SpanID `json:"id"`
	// Parent is the parent span's id (0 for root spans).
	Parent SpanID `json:"parent,omitempty"`
	// Phase classifies the lifecycle interval (queue, boot, exec, ...).
	Phase Phase `json:"phase"`
	// Name is a free-form label (root spans: the function name).
	Name string `json:"name,omitempty"`
	// Job is the job id the span belongs to (0 for non-job spans).
	Job int64 `json:"job,omitempty"`
	// Function names the workload function being traced.
	Function string `json:"function,omitempty"`
	// Worker names the worker the phase ran on (empty off-worker).
	Worker string `json:"worker,omitempty"`
	// Shard names the control-plane shard that recorded the span (empty
	// on unsharded clusters and worker-side spans, whose worker ids
	// already carry the shard prefix).
	Shard string `json:"shard,omitempty"`
	// Attempt is the retry ordinal the span belongs to (0 = first).
	Attempt int `json:"attempt"`
	// Start is the span's opening offset on the cluster clock.
	Start time.Duration `json:"start_ns"`
	// End is the span's closing offset on the cluster clock.
	End time.Duration `json:"end_ns"`
	// EnergyJ is the metered joules the phase consumed.
	EnergyJ float64 `json:"energy_j,omitempty"`
	// Detail annotates the span ("cold"/"warm"/"wake" boots, fault kinds).
	Detail string `json:"detail,omitempty"`
	// Err carries the failure that ended the span, empty on success.
	Err string `json:"err,omitempty"`
}

// Duration is the span's length on the cluster clock.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Trace is one committed invocation trace: the root span plus its child
// phase spans in recording order.
type Trace struct {
	// ID is the trace id (also stamped on every span).
	ID TraceID `json:"trace"`
	// Root is the invocation-level span bracketing the whole job.
	Root Span `json:"root"`
	// Spans holds the child spans in the order they were recorded.
	Spans []Span `json:"spans"`
}

// Config tunes a Tracer.
type Config struct {
	// Seed decorrelates trace ids across tracers; ids (and therefore the
	// hash-based sampling decisions) are a pure function of (Seed, ordinal),
	// so seeded sim runs sample deterministically.
	Seed int64
	// SampleRate is the head-sampled fraction of traces in [0,1]. Zero
	// means sample everything (the default); negative means sample nothing
	// except what the error/slow overrides keep. A trace whose root ends
	// with an error is kept regardless of rate.
	SampleRate float64
	// SlowThreshold, when positive, keeps every trace at least this slow
	// regardless of the sampling rate (tail-latency forensics).
	SlowThreshold time.Duration
	// MaxTraces bounds the committed-trace ring (default 4096); the oldest
	// committed trace is evicted when full.
	MaxTraces int
}

// The tracer's fixed bounds: a trace started while maxActive traces are in
// flight is dropped at birth, and a trace's spans past maxSpans are dropped
// and counted.
const (
	maxActive = 4096
	maxSpans  = 512
)

// Stats counts a tracer's retention behaviour, for loss reporting.
type Stats struct {
	// Committed traces currently retained; Active traces still open.
	Committed int `json:"committed"`
	// Active counts traces started but not yet committed.
	Active int `json:"active"`
	// Unsampled traces discarded at commit by the head-sampling decision;
	// Evicted committed traces overwritten by the ring; Overflow traces
	// dropped at birth by the in-flight bound; TruncatedSpans child spans
	// dropped by the per-trace span bound.
	Unsampled int64 `json:"unsampled"`
	// Evicted counts committed traces overwritten by the ring buffer.
	Evicted int64 `json:"evicted"`
	// Overflow counts traces dropped at birth by the in-flight bound.
	Overflow int64 `json:"overflow"`
	// TruncatedSpans counts child spans dropped by the per-trace bound.
	TruncatedSpans int64 `json:"truncated_spans"`
}

// Tracer records spans into a bounded in-memory store. Safe for
// concurrent use; a nil *Tracer no-ops everywhere.
type Tracer struct {
	cfg Config
	// maxActive and maxSpans are the package bounds; tests shrink them.
	maxActive, maxSpans int

	mu        sync.Mutex
	nextTrace uint64
	nextSpan  uint64
	active    map[TraceID]*activeTrace
	// done is a ring of committed traces, oldest first at (head) when full.
	done  []Trace
	head  int
	count int
	stats Stats
}

// activeTrace is a staged, not-yet-committed trace.
type activeTrace struct {
	root    Span
	spans   []Span
	sampled bool
}

// NewWithConfig returns a tracer with the given settings. The zero Config
// samples everything and keeps default bounds.
func NewWithConfig(cfg Config) *Tracer {
	if cfg.MaxTraces <= 0 {
		cfg.MaxTraces = 4096
	}
	return &Tracer{
		cfg:       cfg,
		maxActive: maxActive,
		maxSpans:  maxSpans,
		active:    make(map[TraceID]*activeTrace),
		done:      make([]Trace, 0, cfg.MaxTraces),
	}
}

// splitmix64 is the SplitMix64 finalizer: a bijective mixer whose output
// passes BigCrush, shared with the experiment runner's seed derivation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sampled is the head-sampling decision: a pure function of the trace id,
// so it is deterministic for seeded runs and consistent across processes
// that share the id — no RNG draw, no coordination.
func (t *Tracer) sampled(id TraceID) bool {
	rate := t.cfg.SampleRate
	if rate == 0 {
		return true
	}
	if rate < 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	// Map the id's hash onto [0,1) with 53 usable bits.
	u := float64(splitmix64(uint64(id))>>11) / float64(uint64(1)<<53)
	return u < rate
}

// StartTrace opens a new trace whose root span begins at cluster-clock
// offset at, and returns the context child spans parent under. The root
// stays open until EndTrace. Returns the invalid Context (making all
// downstream recording no-op) when the tracer is nil or the staging area
// is full.
func (t *Tracer) StartTrace(name string, job int64, function string, at time.Duration) Context {
	if t == nil {
		return Context{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.active) >= t.maxActive {
		t.stats.Overflow++
		return Context{}
	}
	t.nextTrace++
	id := TraceID(splitmix64(uint64(t.cfg.Seed) ^ splitmix64(t.nextTrace)))
	if id == 0 { // zero is the invalid id; remap the 1-in-2^64 collision
		id = 1
	}
	t.nextSpan++
	root := Span{
		Trace:    id,
		ID:       SpanID(t.nextSpan),
		Phase:    PhaseInvocation,
		Name:     name,
		Job:      job,
		Function: function,
		Start:    at,
		End:      at,
	}
	t.active[id] = &activeTrace{root: root, sampled: t.sampled(id)}
	return Context{Trace: id, Span: root.ID}
}

// Record appends one completed child span to the context's trace. The
// span's Trace, ID, and (when unset) Parent fields are filled in. No-op
// when the tracer is nil, the context invalid, or the trace unknown.
func (t *Tracer) Record(ctx Context, s Span) {
	if t == nil || !ctx.Valid() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.active[ctx.Trace]
	if !ok {
		return
	}
	if len(at.spans) >= t.maxSpans {
		t.stats.TruncatedSpans++
		return
	}
	t.nextSpan++
	s.Trace = ctx.Trace
	s.ID = SpanID(t.nextSpan)
	if s.Parent == 0 {
		s.Parent = ctx.Span
	}
	at.spans = append(at.spans, s)
}

// EndTrace closes the context's root span at cluster-clock offset at and
// commits or drops the trace: it is kept when head-sampled, when errMsg
// is non-empty, or when at least SlowThreshold long.
func (t *Tracer) EndTrace(ctx Context, at time.Duration, worker, errMsg string) {
	if t == nil || !ctx.Valid() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.active[ctx.Trace]
	if !ok {
		return
	}
	delete(t.active, ctx.Trace)
	tr.root.End = at
	tr.root.Worker = worker
	tr.root.Err = errMsg
	for _, s := range tr.spans {
		if s.Attempt > tr.root.Attempt {
			tr.root.Attempt = s.Attempt
		}
	}
	keep := tr.sampled ||
		errMsg != "" ||
		(t.cfg.SlowThreshold > 0 && tr.root.Duration() >= t.cfg.SlowThreshold)
	if !keep {
		t.stats.Unsampled++
		return
	}
	t.commitLocked(Trace{ID: ctx.Trace, Root: tr.root, Spans: tr.spans})
}

// commitLocked appends to the ring, evicting the oldest committed trace
// when full. Caller holds t.mu.
func (t *Tracer) commitLocked(tr Trace) {
	if t.count < t.cfg.MaxTraces {
		t.done = append(t.done, tr)
		t.count++
		return
	}
	t.done[t.head] = tr
	t.head = (t.head + 1) % t.cfg.MaxTraces
	t.stats.Evicted++
}

// Len returns the number of committed traces retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Stats returns the tracer's retention counters.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats
	st.Committed = t.count
	st.Active = len(t.active)
	return st
}

// Traces returns a copy of the committed traces, oldest first.
func (t *Tracer) Traces() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, t.count)
	for i := 0; i < t.count; i++ {
		out = append(out, t.done[(t.head+i)%len(t.done)])
	}
	return out
}

// Get returns the committed trace with the given id.
func (t *Tracer) Get(id TraceID) (Trace, bool) {
	if t == nil {
		return Trace{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < t.count; i++ {
		if tr := t.done[(t.head+i)%len(t.done)]; tr.ID == id {
			return tr, true
		}
	}
	return Trace{}, false
}

// ByJob returns the newest committed trace for the given job id.
func (t *Tracer) ByJob(job int64) (Trace, bool) {
	if t == nil {
		return Trace{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := t.count - 1; i >= 0; i-- {
		if tr := t.done[(t.head+i)%len(t.done)]; tr.Root.Job == job {
			return tr, true
		}
	}
	return Trace{}, false
}

// Slowest returns up to n committed traces ordered by descending
// end-to-end duration (ties broken oldest first, so the order is
// deterministic for seeded runs).
func (t *Tracer) Slowest(n int) []Trace {
	all := t.Traces()
	sort.SliceStable(all, func(i, j int) bool {
		return all[i].Root.Duration() > all[j].Root.Duration()
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

package tracing

import (
	"encoding/json"
	"testing"
	"time"
)

func TestIDMarshalRoundTrip(t *testing.T) {
	id := TraceID(0xdeadbeef01020304)
	b, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"deadbeef01020304"` {
		t.Fatalf("marshal = %s", b)
	}
	var back TraceID
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("round trip: %x != %x", back, id)
	}
	parsed, err := ParseTraceID(id.String())
	if err != nil || parsed != id {
		t.Fatalf("ParseTraceID(%q) = %x, %v", id.String(), parsed, err)
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Fatal("ParseTraceID accepted garbage")
	}

	var sp SpanID
	if err := json.Unmarshal([]byte(`"00000000000000ff"`), &sp); err != nil || sp != 255 {
		t.Fatalf("span unmarshal = %v, %v", sp, err)
	}
}

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	ctx := tr.StartTrace("f", 1, "f", 0)
	if ctx.Valid() {
		t.Fatal("nil tracer returned a valid context")
	}
	tr.Record(ctx, Span{Phase: PhaseQueue})
	tr.EndTrace(ctx, time.Second, "w", "")
	if tr.Len() != 0 || len(tr.Traces()) != 0 {
		t.Fatal("nil tracer retained traces")
	}
	if _, ok := tr.Get(1); ok {
		t.Fatal("nil tracer Get succeeded")
	}
	if _, ok := tr.ByJob(1); ok {
		t.Fatal("nil tracer ByJob succeeded")
	}
	if st := tr.Stats(); st != (Stats{}) {
		t.Fatalf("nil tracer stats = %+v", st)
	}
	if got := tr.Slowest(3); len(got) != 0 {
		t.Fatalf("nil tracer Slowest = %v", got)
	}
}

func TestInvalidContextNoOps(t *testing.T) {
	tr := NewWithConfig(Config{})
	tr.Record(Context{}, Span{Phase: PhaseQueue})
	tr.EndTrace(Context{}, time.Second, "", "")
	if tr.Len() != 0 {
		t.Fatal("invalid context committed a trace")
	}
}

func TestRecordAndLookup(t *testing.T) {
	tr := NewWithConfig(Config{})
	ctx := tr.StartTrace("CascSHA", 7, "CascSHA", 10*time.Millisecond)
	if !ctx.Valid() {
		t.Fatal("StartTrace returned invalid context")
	}
	tr.Record(ctx, Span{Phase: PhaseQueue, Start: 10 * time.Millisecond, End: 20 * time.Millisecond})
	tr.Record(ctx, Span{Phase: PhaseExec, Worker: "sbc-001", Start: 20 * time.Millisecond, End: 50 * time.Millisecond, EnergyJ: 0.5, Attempt: 1})
	tr.EndTrace(ctx, 50*time.Millisecond, "sbc-001", "")

	got, ok := tr.Get(ctx.Trace)
	if !ok {
		t.Fatal("Get missed committed trace")
	}
	if got.Root.Job != 7 || got.Root.Function != "CascSHA" || got.Root.Worker != "sbc-001" {
		t.Fatalf("root = %+v", got.Root)
	}
	if got.Root.Duration() != 40*time.Millisecond {
		t.Fatalf("root duration = %v", got.Root.Duration())
	}
	if got.Root.Attempt != 1 {
		t.Fatalf("root attempt = %d, want max child attempt 1", got.Root.Attempt)
	}
	if len(got.Spans) != 2 {
		t.Fatalf("spans = %d", len(got.Spans))
	}
	for _, s := range got.Spans {
		if s.Trace != ctx.Trace || s.ID == 0 || s.Parent != ctx.Span {
			t.Fatalf("span not filled in: %+v", s)
		}
	}
	byJob, ok := tr.ByJob(7)
	if !ok || byJob.ID != ctx.Trace {
		t.Fatalf("ByJob = %v, %v", byJob.ID, ok)
	}
	if _, ok := tr.ByJob(99); ok {
		t.Fatal("ByJob found a job that never ran")
	}
	// Recording after EndTrace is a silent no-op (the stage is gone).
	tr.Record(ctx, Span{Phase: PhaseReboot})
	if again, _ := tr.Get(ctx.Trace); len(again.Spans) != 2 {
		t.Fatal("Record after EndTrace mutated the committed trace")
	}
}

func TestRingEviction(t *testing.T) {
	tr := NewWithConfig(Config{MaxTraces: 2})
	end := func(job int64) TraceID {
		ctx := tr.StartTrace("f", job, "f", 0)
		tr.EndTrace(ctx, time.Duration(job)*time.Millisecond, "", "")
		return ctx.Trace
	}
	first := end(1)
	end(2)
	end(3)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if _, ok := tr.Get(first); ok {
		t.Fatal("oldest trace not evicted")
	}
	all := tr.Traces()
	if len(all) != 2 || all[0].Root.Job != 2 || all[1].Root.Job != 3 {
		t.Fatalf("Traces order = %v", []int64{all[0].Root.Job, all[1].Root.Job})
	}
	if st := tr.Stats(); st.Evicted != 1 || st.Committed != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMaxActiveOverflow(t *testing.T) {
	tr := NewWithConfig(Config{})
	tr.maxActive = 1
	a := tr.StartTrace("a", 1, "a", 0)
	b := tr.StartTrace("b", 2, "b", 0)
	if !a.Valid() || b.Valid() {
		t.Fatalf("contexts: a=%v b=%v", a.Valid(), b.Valid())
	}
	if st := tr.Stats(); st.Overflow != 1 || st.Active != 1 {
		t.Fatalf("stats = %+v", st)
	}
	tr.EndTrace(a, time.Second, "", "")
	if c := tr.StartTrace("c", 3, "c", 0); !c.Valid() {
		t.Fatal("slot not freed after EndTrace")
	}
}

func TestMaxSpansTruncation(t *testing.T) {
	tr := NewWithConfig(Config{})
	tr.maxSpans = 2
	ctx := tr.StartTrace("f", 1, "f", 0)
	for i := 0; i < 5; i++ {
		tr.Record(ctx, Span{Phase: PhaseRetry})
	}
	tr.EndTrace(ctx, time.Second, "", "")
	got, _ := tr.Get(ctx.Trace)
	if len(got.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(got.Spans))
	}
	if st := tr.Stats(); st.TruncatedSpans != 3 {
		t.Fatalf("truncated = %d, want 3", st.TruncatedSpans)
	}
}

func TestSamplingDeterministicAndSeeded(t *testing.T) {
	run := func(seed int64, rate float64) []TraceID {
		tr := NewWithConfig(Config{Seed: seed, SampleRate: rate})
		for j := int64(0); j < 200; j++ {
			ctx := tr.StartTrace("f", j, "f", 0)
			tr.EndTrace(ctx, time.Millisecond, "", "")
		}
		all := tr.Traces()
		ids := make([]TraceID, len(all))
		for i, x := range all {
			ids[i] = x.ID
		}
		return ids
	}
	a := run(42, 0.25)
	b := run(42, 0.25)
	if len(a) != len(b) {
		t.Fatalf("same seed diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("rate 0.25 kept %d/200 — sampling not thinning", len(a))
	}
	c := run(43, 0.25)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical samples")
	}
}

func TestSamplingOverrides(t *testing.T) {
	// Negative rate: nothing head-sampled, but errors and slow traces kept.
	tr := NewWithConfig(Config{SampleRate: -1, SlowThreshold: time.Second})
	ok := tr.StartTrace("ok", 1, "ok", 0)
	tr.EndTrace(ok, time.Millisecond, "", "")
	failed := tr.StartTrace("bad", 2, "bad", 0)
	tr.EndTrace(failed, time.Millisecond, "", "worker exploded")
	slow := tr.StartTrace("slow", 3, "slow", 0)
	tr.EndTrace(slow, 2*time.Second, "", "")
	if tr.Len() != 2 {
		t.Fatalf("kept %d, want error+slow only", tr.Len())
	}
	if _, ok := tr.ByJob(1); ok {
		t.Fatal("clean fast trace survived negative rate")
	}
	if st := tr.Stats(); st.Unsampled != 1 {
		t.Fatalf("unsampled = %d", st.Unsampled)
	}

	// The error override needs no slow threshold beside it.
	tr2 := NewWithConfig(Config{SampleRate: -1})
	f := tr2.StartTrace("bad", 1, "bad", 0)
	tr2.EndTrace(f, time.Millisecond, "", "worker exploded")
	if tr2.Len() != 1 {
		t.Fatal("an error trace was dropped")
	}
}

func TestSlowest(t *testing.T) {
	tr := NewWithConfig(Config{})
	for j := int64(1); j <= 4; j++ {
		ctx := tr.StartTrace("f", j, "f", 0)
		// Job 3 slowest, then 1, 4, 2.
		dur := map[int64]time.Duration{1: 30, 2: 10, 3: 40, 4: 20}[j]
		tr.EndTrace(ctx, dur*time.Millisecond, "", "")
	}
	got := tr.Slowest(2)
	if len(got) != 2 || got[0].Root.Job != 3 || got[1].Root.Job != 1 {
		jobs := make([]int64, len(got))
		for i, x := range got {
			jobs[i] = x.Root.Job
		}
		t.Fatalf("Slowest(2) jobs = %v, want [3 1]", jobs)
	}
}

func TestSummarizeTelescopes(t *testing.T) {
	tr := NewWithConfig(Config{})
	ctx := tr.StartTrace("f", 1, "f", 0)
	// Contiguous phases: queue [0,10] → boot [10,40] → exec [40,70].
	tr.Record(ctx, Span{Phase: PhaseSubmit, Start: 0, End: 0})
	tr.Record(ctx, Span{Phase: PhaseQueue, Start: 0, End: 10 * time.Millisecond})
	tr.Record(ctx, Span{Phase: PhaseBoot, Worker: "w", Start: 10 * time.Millisecond, End: 40 * time.Millisecond, EnergyJ: 1.5})
	tr.Record(ctx, Span{Phase: PhaseExec, Worker: "w", Start: 40 * time.Millisecond, End: 70 * time.Millisecond, EnergyJ: 0.25})
	tr.EndTrace(ctx, 70*time.Millisecond, "w", "")
	got, _ := tr.Get(ctx.Trace)
	sum := Summarize(got)
	var phaseTotal time.Duration
	var joules float64
	for _, p := range sum.Phases {
		phaseTotal += p.Duration
		joules += p.EnergyJ
	}
	if phaseTotal+sum.Unattributed != sum.Latency {
		t.Fatalf("phases %v + unattributed %v != latency %v", phaseTotal, sum.Unattributed, sum.Latency)
	}
	if sum.Unattributed != 0 {
		t.Fatalf("contiguous spans left %v unattributed", sum.Unattributed)
	}
	if joules != sum.EnergyJ || joules != 1.75 {
		t.Fatalf("energy: phases %v, summary %v, want 1.75", joules, sum.EnergyJ)
	}
	// Canonical ordering: submit before queue before boot before exec.
	order := make([]Phase, len(sum.Phases))
	for i, p := range sum.Phases {
		order[i] = p.Phase
	}
	want := []Phase{PhaseSubmit, PhaseQueue, PhaseBoot, PhaseExec}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("phase order = %v, want %v", order, want)
		}
	}
}

func TestSummarizeUnattributedGap(t *testing.T) {
	tr := NewWithConfig(Config{})
	ctx := tr.StartTrace("f", 1, "f", 0)
	// A hung attempt: queue covered, then nothing until the deadline fired.
	tr.Record(ctx, Span{Phase: PhaseQueue, Start: 0, End: 5 * time.Millisecond})
	tr.EndTrace(ctx, 100*time.Millisecond, "", "deadline exceeded")
	got, _ := tr.Get(ctx.Trace)
	sum := Summarize(got)
	if sum.Unattributed != 95*time.Millisecond {
		t.Fatalf("unattributed = %v, want 95ms", sum.Unattributed)
	}
	if sum.Err == "" {
		t.Fatal("error lost")
	}
}

func TestContextWireRoundTrip(t *testing.T) {
	ctx := Context{Trace: 0xabc, Span: 0xdef}
	tid, sid := ctx.Wire()
	back := ContextFromWire(tid, sid)
	if back != ctx {
		t.Fatalf("wire round trip: %+v != %+v", back, ctx)
	}
	if got := ContextFromWire("", ""); got.Valid() {
		t.Fatal("empty wire form parsed as valid")
	}
	if got := ContextFromWire("zzz", "1"); got.Valid() {
		t.Fatal("garbage wire form parsed as valid")
	}
	var invalid Context
	tid, sid = invalid.Wire()
	if tid != "" || sid != "" {
		t.Fatalf("invalid context wire = %q, %q", tid, sid)
	}
}

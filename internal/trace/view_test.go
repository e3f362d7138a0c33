package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"microfaas/internal/chunklog"
)

var update = flag.Bool("update", false, "rewrite golden files")

func millis(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// goldenCollector holds two jobs' rows: a clean warm invocation, and one
// whose first attempt failed on sbc-003 and whose retry booted cold on
// sbc-002.
func goldenCollector() *Collector {
	c := NewCollector()
	add(c, Record{JobID: 1, Function: "CascSHA", Worker: "sbc-001",
		Submitted: millis(0), Started: millis(10), Finished: millis(40), Overhead: millis(5), Exec: millis(25), Joules: 0.0588})
	add(c, Record{JobID: 2, Function: "JSON", Worker: "sbc-003",
		Submitted: millis(5), Started: millis(20), Finished: millis(1500), Boot: millis(1470), Exec: millis(10),
		BootJoules: 2.9, Joules: 2.92, Err: "node: injected worker error"})
	add(c, Record{JobID: 2, Function: "JSON", Worker: "sbc-002", Attempt: 1,
		Submitted: millis(5), Started: millis(1540), Finished: millis(3100), Boot: millis(1510), Overhead: millis(10), Exec: millis(40),
		BootJoules: 2.9596, Joules: 3.0576})
	return c
}

// TestChromeTraceGolden locks the exporter's exact byte output against a
// committed fixture: the trace_event format is consumed by external
// tools (Perfetto, chrome://tracing), so accidental shape drift must
// show up as a test diff. Regenerate with `go test -run Golden -update`.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, Traces(goldenCollector())); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome export drifted from golden file %s\ngot:  %s\nwant: %s", path, buf.Bytes(), want)
	}
}

// TestChromeTraceShape validates the structural invariants any
// trace_event consumer relies on, independent of the golden bytes.
func TestChromeTraceShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, Traces(goldenCollector())); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string            `json:"name"`
			Phase string            `json:"ph"`
			TS    *float64          `json:"ts"`
			Dur   *float64          `json:"dur"`
			PID   *int              `json:"pid"`
			TID   *int              `json:"tid"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var meta, complete int
	workerTIDs := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "M":
			meta++
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				t.Fatalf("metadata event %q", ev.Name)
			}
		case "X":
			complete++
			if ev.TS == nil || ev.Dur == nil || ev.PID == nil || ev.TID == nil {
				t.Fatalf("complete event missing ts/dur/pid/tid: %+v", ev)
			}
			if *ev.Dur < 0 {
				t.Fatalf("negative duration: %+v", ev)
			}
			if ev.Args["job"] == "" {
				t.Fatalf("complete event without job arg: %+v", ev)
			}
			if ev.Name == "boot" || ev.Name == "exec" {
				if *ev.TID == 0 {
					t.Fatalf("worker phase on orchestrator track: %+v", ev)
				}
				workerTIDs[*ev.TID] = true
			}
		default:
			t.Fatalf("unexpected ph %q", ev.Phase)
		}
	}
	// process_name + orchestrator thread + 3 worker threads.
	if meta != 5 {
		t.Fatalf("metadata events = %d, want 5", meta)
	}
	// Roots, then per attempt wait + boot + exec + settle (+ fault).
	if want := 2 + 4 + (5 + 4); complete != want {
		t.Fatalf("complete events = %d, want %d", complete, want)
	}
	if len(workerTIDs) != 3 {
		t.Fatalf("worker tracks = %d, want 3", len(workerTIDs))
	}
}

func TestWriteNDJSON(t *testing.T) {
	var buf bytes.Buffer
	traces := Traces(goldenCollector())
	if err := WriteNDJSON(&buf, traces); err != nil {
		t.Fatal(err)
	}
	wantLines := 0
	for _, tr := range traces {
		wantLines += 1 + len(tr.Spans)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		lines++
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d not a span: %v\n%s", lines, err, sc.Text())
		}
		if s.Job == 0 {
			t.Fatalf("line %d lost its job id: %s", lines, sc.Text())
		}
	}
	if lines != wantLines {
		t.Fatalf("lines = %d, want %d", lines, wantLines)
	}
}

// TestRecordAndLookup: a job's trace is its rows, in attempt order, with
// the phases the rows imply; a job with no row has none.
func TestRecordAndLookup(t *testing.T) {
	c := goldenCollector()
	tr, ok := TraceOf(2, c)
	if !ok {
		t.Fatal("job 2 not found")
	}
	root := tr.Root
	if root.Job != 2 || root.Function != "JSON" || root.Worker != "sbc-002" || root.Attempt != 1 ||
		root.Start != millis(5) || root.End != millis(3100) || root.Err != "" {
		t.Fatalf("root = %+v", root)
	}
	var got []Phase
	for _, s := range tr.Spans {
		got = append(got, s.Phase)
	}
	want := []Phase{PhaseQueue, PhaseBoot, PhaseExec, PhaseSettle, PhaseFault, PhaseRetry, PhaseBoot, PhaseExec, PhaseSettle}
	if len(got) != len(want) {
		t.Fatalf("phases %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("phases %v, want %v", got, want)
		}
	}
	if retry := tr.Spans[5]; retry.Start != millis(1500) || retry.End != millis(1540) {
		t.Fatalf("retry wait %v..%v, want 1.5s..1.54s", retry.Start, retry.End)
	}
	if fault := tr.Spans[4]; fault.Err != "node: injected worker error" || fault.Worker != "sbc-003" {
		t.Fatalf("fault marker %+v", fault)
	}
	if _, ok := TraceOf(3, c); ok {
		t.Fatal("a job with no row has a trace")
	}
	all := Traces(c)
	if len(all) != 2 || all[0].Root.Job != 1 || all[1].Root.Job != 2 {
		t.Fatalf("Traces = %d traces, want jobs 1 then 2 in finish order", len(all))
	}
}

// TestTraceAcrossCollectors: a job whose attempts settled on two shards
// renders as one trace from both collectors.
func TestTraceAcrossCollectors(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	add(a, Record{JobID: 7, Function: "f", Worker: "s00-sbc-0", Submitted: 0, Started: millis(1), Finished: millis(2), Err: "boom"})
	add(b, Record{JobID: 7, Function: "f", Worker: "s01-sbc-0", Attempt: 1, Submitted: 0, Started: millis(3), Finished: millis(5), Exec: millis(2)})
	for _, colls := range [][]*Collector{{a, b}, {b, a}} {
		tr, ok := TraceOf(7, colls...)
		if !ok || tr.Root.Attempt != 1 || tr.Root.Worker != "s01-sbc-0" || tr.Root.End != millis(5) {
			t.Fatalf("trace %+v, %v", tr.Root, ok)
		}
		if got := Traces(colls...); len(got) != 1 || len(got[0].Spans) != len(tr.Spans) {
			t.Fatalf("Traces renders %d traces", len(got))
		}
	}
}

func TestSlowest(t *testing.T) {
	c := NewCollector()
	for i, lat := range []int{30, 10, 50, 20, 50} {
		add(c, Record{JobID: int64(i + 1), Function: "f", Worker: "w", Submitted: 0, Started: 0, Finished: millis(lat)})
	}
	traces := Traces(c)
	got := Slowest(traces, 3)
	if len(got) != 3 {
		t.Fatalf("Slowest(3) = %d traces", len(got))
	}
	// 50 (job 3, finished first of the two), 50 (job 5), 30 (job 1).
	for i, want := range []int64{3, 5, 1} {
		if got[i].Root.Job != want {
			t.Fatalf("slowest[%d] = job %d, want %d", i, got[i].Root.Job, want)
		}
	}
	if len(Slowest(traces, 0)) != len(traces) || traces[0].Root.Job != 2 {
		t.Fatal("Slowest reordered its input, or n <= 0 did not keep every trace")
	}
}

// TestBreakdownTelescopes: phase durations plus Unattributed equal the
// latency, and phase joules equal the rows' metered joules.
func TestBreakdownTelescopes(t *testing.T) {
	tr, _ := TraceOf(2, goldenCollector())
	b := tr.Breakdown()
	if b.Latency != millis(3095) || b.Attempts != 2 || b.Worker != "sbc-002" {
		t.Fatalf("breakdown %+v", b)
	}
	var sum time.Duration
	var joules float64
	for _, p := range b.Phases {
		sum += p.Duration
		joules += p.EnergyJ
	}
	if sum+b.Unattributed != b.Latency {
		t.Fatalf("phases %v + unattributed %v != latency %v", sum, b.Unattributed, b.Latency)
	}
	// Both attempts' boot, overhead and exec fill their runs exactly.
	if b.Unattributed != 0 {
		t.Fatalf("unattributed %v, want 0", b.Unattributed)
	}
	if want := float64(float32(2.92)) + float64(float32(3.0576)); math.Abs(joules-want) > 1e-9 || b.EnergyJ != joules {
		t.Fatalf("phase joules %v (breakdown %v), want %v", joules, b.EnergyJ, want)
	}
	order := map[Phase]int{}
	for i, p := range phaseOrder {
		order[p] = i
	}
	for i := 1; i < len(b.Phases); i++ {
		if order[b.Phases[i-1].Phase] >= order[b.Phases[i].Phase] {
			t.Fatalf("phases out of display order: %+v", b.Phases)
		}
	}
}

// TestBreakdownUnattributedGap: a timed-out attempt reports no boot,
// overhead or exec, so its whole run is unattributed.
func TestBreakdownUnattributedGap(t *testing.T) {
	c := NewCollector()
	add(c, Record{JobID: 1, Function: "f", Worker: "w", Submitted: 0, Started: millis(10), Finished: millis(110), Err: "deadline"})
	tr, _ := TraceOf(1, c)
	b := tr.Breakdown()
	if b.Latency != millis(110) || b.Unattributed != millis(100) || b.Err != "deadline" {
		t.Fatalf("breakdown %+v", b)
	}
}

// TestTraceLeavesWithWindow: the view's only bound is the record window —
// a job whose rows the window dropped has no trace, and the view never
// holds more jobs than the window does.
func TestTraceLeavesWithWindow(t *testing.T) {
	const window = chunklog.ChunkSize
	c := NewWindowCollector(window)
	n := 3 * window
	for i := 1; i <= n; i++ {
		add(c, Record{JobID: int64(i), Function: "f", Worker: "w", Started: millis(i), Finished: millis(i + 1)})
	}
	if _, ok := TraceOf(1, c); ok {
		t.Fatal("job 1 still has a trace after the window dropped it")
	}
	if _, ok := TraceOf(int64(n), c); !ok {
		t.Fatal("the newest job has no trace")
	}
	if got := len(Traces(c)); got != len(c.Records()) || got > window+chunklog.ChunkSize {
		t.Fatalf("%d traces for %d held records (window %d)", got, len(c.Records()), window)
	}
}

// TestUnsettledAttemptHasNoTrace: the view stages nothing in flight. A
// job with no settled attempt has no trace, and a job whose retry is
// still running renders only the attempt that settled, so unsettled work
// holds no trace state to bound.
func TestUnsettledAttemptHasNoTrace(t *testing.T) {
	c := NewCollector()
	if _, ok := TraceOf(1, c); ok || len(Traces(c)) != 0 {
		t.Fatal("a job with no settled attempt has a trace")
	}
	add(c, Record{JobID: 1, Function: "f", Worker: "w", Started: millis(10), Finished: millis(20), Exec: millis(10), Err: "boom"})
	tr, ok := TraceOf(1, c)
	if !ok || tr.Root.Attempt != 0 || tr.Root.Err != "boom" || len(tr.Spans) != 5 {
		t.Fatalf("with the retry in flight: ok=%v root=%+v spans=%d, want attempt 0 failed with 5 spans", ok, tr.Root, len(tr.Spans))
	}
	add(c, Record{JobID: 1, Function: "f", Worker: "w", Attempt: 1, Started: millis(30), Finished: millis(40), Exec: millis(10)})
	tr, _ = TraceOf(1, c)
	if tr.Root.Attempt != 1 || tr.Root.Err != "" || len(tr.Spans) != 9 {
		t.Fatalf("after the retry settled: root=%+v spans=%d, want attempt 1 ok with 9 spans", tr.Root, len(tr.Spans))
	}
	if got := len(Traces(c)); got != 1 {
		t.Fatalf("%d traces for one job", got)
	}
}

// TestTraceSpansScaleWithAttempts: a trace's size is fixed by its
// attempts (a wait, a boot, an exec and a settle marker each, plus a
// fault marker per failed one), so the retry budget bounds it and no
// span cap is needed.
func TestTraceSpansScaleWithAttempts(t *testing.T) {
	const attempts = 5
	c := NewCollector()
	for a := attempts - 1; a >= 0; a-- { // settle order does not matter
		r := Record{JobID: 1, Function: "f", Worker: "w", Attempt: a,
			Started: millis(10*a + 1), Finished: millis(10*a + 10), Exec: millis(9)}
		if a < attempts-1 {
			r.Err = "boom"
		}
		add(c, r)
	}
	tr, _ := TraceOf(1, c)
	if want := 4*attempts + attempts - 1; len(tr.Spans) != want {
		t.Fatalf("%d spans for %d attempts, want %d", len(tr.Spans), attempts, want)
	}
	counts := map[Phase]int{}
	for i, s := range tr.Spans {
		counts[s.Phase]++
		if i > 0 && s.Attempt < tr.Spans[i-1].Attempt {
			t.Fatalf("span %d (attempt %d) follows attempt %d", i, s.Attempt, tr.Spans[i-1].Attempt)
		}
	}
	want := map[Phase]int{PhaseQueue: 1, PhaseRetry: attempts - 1, PhaseBoot: attempts, PhaseExec: attempts,
		PhaseSettle: attempts, PhaseFault: attempts - 1}
	for p, n := range want {
		if counts[p] != n {
			t.Fatalf("%d %s spans, want %d (all: %v)", counts[p], p, n, counts)
		}
	}
}

// TestConcurrentAddAndExport settles records from parallel producers
// while readers render and export the view — the live shape, where
// workers' completions settle as gateway handlers stream /traces. Run
// under -race; every rendered trace must be whole.
func TestConcurrentAddAndExport(t *testing.T) {
	c := NewWindowCollector(chunklog.ChunkSize)
	const producers, each = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			w := c.Worker("w")
			for i := 0; i < each; i++ {
				c.Add(w, Record{JobID: int64(p*each + i + 1), Function: "f", Started: millis(1), Finished: millis(2), Exec: millis(1), Joules: 0.1})
			}
		}(p)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				traces := Traces(c)
				for _, tr := range traces {
					if len(tr.Spans) != 4 {
						t.Errorf("job %d renders %d spans, want 4", tr.Root.Job, len(tr.Spans))
						return
					}
				}
				if err := WriteChromeTrace(io.Discard, traces); err != nil {
					t.Errorf("chrome export: %v", err)
					return
				}
				if err := WriteNDJSON(io.Discard, Slowest(traces, 10)); err != nil {
					t.Errorf("ndjson export: %v", err)
					return
				}
				TraceOf(3, c)
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
}

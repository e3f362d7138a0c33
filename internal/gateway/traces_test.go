package gateway

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
)

// startTracedSimGateway runs a seeded MicroFaaS sim and serves its
// orchestrator through a gateway — the deterministic fixture the /traces
// tests read back. Every job in the run has a trace.
func startTracedSimGateway(t *testing.T) (base string, coll *trace.Collector) {
	t.Helper()
	s, err := cluster.NewMicroFaaSSim(4, cluster.SimConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if coll, err = s.RunSuite(1, nil); err != nil {
		t.Fatal(err)
	}
	gw := front(t, s.Orch, Options{Mode: "sim"})
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	return srv.URL, coll
}

func getJSON(t *testing.T, url string, v interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestTracesEndpoint(t *testing.T) {
	base, coll := startTracedSimGateway(t)
	var out TracesResponse
	if resp := getJSON(t, base+"/traces?limit=1000", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("traces → %d", resp.StatusCode)
	}
	if len(out.Traces) != coll.Len() {
		t.Fatalf("listed %d traces for %d records", len(out.Traces), coll.Len())
	}
	for _, sum := range out.Traces {
		if sum.Job == 0 || sum.Function == "" || sum.LatencyMs <= 0 || len(sum.Phases) == 0 {
			t.Fatalf("malformed summary %+v", sum)
		}
		var phaseMs float64
		for _, p := range sum.Phases {
			phaseMs += p.DurationMs
		}
		// Wire units are float ms; allow float slop only.
		if diff := phaseMs + sum.UnattributedMs - sum.LatencyMs; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("job %d: phases %.6f + unattributed %.6f != latency %.6f",
				sum.Job, phaseMs, sum.UnattributedMs, sum.LatencyMs)
		}
	}

	// ?slowest=2 returns two traces in descending latency order.
	var slow TracesResponse
	getJSON(t, base+"/traces?slowest=2", &slow)
	if len(slow.Traces) != 2 || slow.Traces[0].LatencyMs < slow.Traces[1].LatencyMs {
		t.Fatalf("?slowest=2 → %+v", slow.Traces)
	}

	// ?limit=1 caps the default listing at the newest trace, and the
	// default listing at 100.
	var lim, def TracesResponse
	getJSON(t, base+"/traces?limit=1", &lim)
	if len(lim.Traces) != 1 || lim.Traces[0].Job != out.Traces[len(out.Traces)-1].Job {
		t.Fatalf("?limit=1 → %+v", lim.Traces)
	}
	getJSON(t, base+"/traces", &def)
	if len(out.Traces) > 100 && len(def.Traces) != 100 {
		t.Fatalf("the default listing holds %d traces, want 100", len(def.Traces))
	}

	// Bad parameters are 400s.
	for _, q := range []string{"?slowest=0", "?limit=-1", "?format=yaml"} {
		if resp := getJSON(t, base+"/traces"+q, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s → %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestTracesExportFormats(t *testing.T) {
	base, _ := startTracedSimGateway(t)
	resp, err := http.Get(base + "/traces?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents     []json.RawMessage `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("chrome export does not parse: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("chrome export shape: unit=%q events=%d", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}

	resp2, err := http.Get(base + "/traces?format=ndjson&slowest=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("ndjson content type %q", ct)
	}
	body, _ := io.ReadAll(resp2.Body)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 2 {
		t.Fatalf("ndjson dump has %d lines", len(lines))
	}
	for _, ln := range lines {
		if !json.Valid([]byte(ln)) {
			t.Fatalf("bad ndjson line: %s", ln)
		}
	}
}

// TestTraceByID: a trace's id is its job id, and its reply carries the
// job's phases as the view renders them.
func TestTraceByID(t *testing.T) {
	base, coll := startTracedSimGateway(t)
	want, _ := trace.TraceOf(coll.Records()[0].JobID, coll)
	var out TraceResponse
	if resp := getJSON(t, base+"/traces/"+itoa(want.Root.Job), &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("trace by id → %d", resp.StatusCode)
	}
	if out.Job != want.Root.Job || out.Worker != want.Root.Worker {
		t.Fatalf("got %+v, want job %d on %s", out.TraceSummary, want.Root.Job, want.Root.Worker)
	}
	if len(out.Spans) != len(want.Spans) {
		t.Fatalf("spans = %d, want %d", len(out.Spans), len(want.Spans))
	}
	for i, sp := range out.Spans {
		if sp.Phase != string(want.Spans[i].Phase) {
			t.Fatalf("span %d is %q, want %q", i, sp.Phase, want.Spans[i].Phase)
		}
	}
	for _, id := range []string{"zzzz", "0", "-3"} {
		if resp := getJSON(t, base+"/traces/"+id, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad id %s → %d, want 400", id, resp.StatusCode)
		}
	}
}

// TestTraceOutsideWindow: every gateway backs the trace routes, and a job
// with no row in the record window — one that never ran — is a 404 that
// says so.
func TestTraceOutsideWindow(t *testing.T) {
	base, _ := startGateway(t)
	var out TracesResponse
	if resp := getJSON(t, base+"/traces", &out); resp.StatusCode != http.StatusOK || len(out.Traces) != 0 {
		t.Fatalf("/traces before any job → %d with %d traces, want 200 and none", resp.StatusCode, len(out.Traces))
	}
	resp, body := do(t, http.MethodGet, base+"/traces/999", nil)
	var reply struct{ Error string }
	if err := json.Unmarshal([]byte(body), &reply); err != nil || resp.StatusCode != http.StatusNotFound ||
		!strings.Contains(reply.Error, "not in the record window") {
		t.Fatalf("/traces/999 → %d %q, want a 404 naming the record window", resp.StatusCode, body)
	}
}

// TestEventsRingOverwritePaging drives more events through the ring than
// it can hold, then pages via ?since= and checks the dropped count
// reports exactly the overwritten events.
func TestEventsRingOverwritePaging(t *testing.T) {
	const capacity = telemetry.DefaultEventCapacity
	tel := telemetry.New()
	l, err := cluster.StartLive(cluster.LiveOptions{Workers: 1, Seed: 9, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	gw := front(t, l.Orch, Options{})
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	base := srv.URL

	// One invocation emits a full lifecycle (6+ events); a ring's worth of
	// cluster-level events after it overwrites every one of them.
	if _, out := postInvoke(t, base, `{"function":"CascSHA","args":{"rounds":3,"seed":"ring"}}`); out.Error != "" {
		t.Fatalf("invoke: %+v", out)
	}
	emitRing(tel)
	_, _, last := tel.Events().Page(-1, 1)
	total := last + 1
	if total <= capacity {
		t.Fatalf("only %d events; ring never overwrote", total)
	}

	// A poller that saw nothing (since=-1 default) gets the ring's
	// survivors and an exact loss count for the rest.
	var page EventsResponse
	getJSON(t, base+"/events?max="+itoa(capacity), &page)
	if len(page.Events) != capacity {
		t.Fatalf("page = %d events, want the ring's %d", len(page.Events), capacity)
	}
	if page.Dropped != total-capacity {
		t.Fatalf("dropped = %d, want %d", page.Dropped, total-capacity)
	}
	if page.Events[0].Seq != total-capacity || page.Cursor != itoa(total-1) {
		t.Fatalf("page window [%d..%s], want [%d..%d]",
			page.Events[0].Seq, page.Cursor, total-capacity, total-1)
	}

	// A poller current through the seq two below the ring's oldest
	// survivor lost exactly the one event between them.
	var part EventsResponse
	getJSON(t, base+"/events?max="+itoa(capacity)+"&since="+itoa(total-capacity-2), &part)
	if part.Dropped != 1 || len(part.Events) != capacity {
		t.Fatalf("partial page: dropped=%d events=%d, want 1/%d", part.Dropped, len(part.Events), capacity)
	}

	// A fully caught-up poller loses nothing and gets nothing.
	var tail EventsResponse
	getJSON(t, base+"/events?since="+itoa(total-1), &tail)
	if tail.Dropped != 0 || len(tail.Events) != 0 {
		t.Fatalf("caught-up page: %+v", tail)
	}
}

func TestPprofMounting(t *testing.T) {
	l, err := cluster.StartLive(cluster.LiveOptions{Workers: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)

	on := front(t, l.Orch, Options{EnablePprof: true})
	srvOn := httptest.NewServer(on.Handler())
	t.Cleanup(srvOn.Close)
	if resp := getJSON(t, srvOn.URL+"/debug/pprof/", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index with -pprof → %d", resp.StatusCode)
	}
	if resp := getJSON(t, srvOn.URL+"/debug/pprof/cmdline", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline with -pprof → %d", resp.StatusCode)
	}

	off := front(t, l.Orch, Options{})
	srvOff := httptest.NewServer(off.Handler())
	t.Cleanup(srvOff.Close)
	if resp := getJSON(t, srvOff.URL+"/debug/pprof/", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof index without -pprof → %d, want 404", resp.StatusCode)
	}
}

// itoa formats an int64 for URL query building.
func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// emitRing appends a full event ring's worth of cluster-level events to
// tel, stamped an hour into the run so they follow every lifecycle event
// in time as well as in sequence.
func emitRing(tel *telemetry.Telemetry) {
	for i := 0; i < telemetry.DefaultEventCapacity; i++ {
		tel.Emit(time.Hour+time.Duration(i)*time.Millisecond, telemetry.EventSubmit, 0, "", "", 0, "fill")
	}
}

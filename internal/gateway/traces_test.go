package gateway

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"microfaas/internal/cluster"
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

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/core"
	"microfaas/internal/gateway"
	"microfaas/internal/power"
	"microfaas/internal/shard"
	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
)

// serve fronts plane with a gateway on a free port and returns a client
// aimed at it, capturing output.
func serve(t *testing.T, plane *shard.Plane, opts gateway.Options) (*client, *strings.Builder) {
	t.Helper()
	gw, err := gateway.New(plane, opts)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	var sb strings.Builder
	return &client{
		base: "http://" + addr,
		http: &http.Client{Timeout: 30 * time.Second},
		out:  &sb,
	}, &sb
}

// planeOf is orch as a plane of one shard, the way microfaas-live serves
// its cluster.
func planeOf(t *testing.T, orch *core.Orchestrator) *shard.Plane {
	t.Helper()
	plane, err := shard.NewPlane(orch.Runtime(), []*core.Orchestrator{orch}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return plane
}

// startStack boots a live cluster + gateway and returns a client aimed at
// it, capturing output.
func startStack(t *testing.T) (*client, *strings.Builder) {
	t.Helper()
	l, err := cluster.StartLive(cluster.LiveOptions{Workers: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return serve(t, planeOf(t, l.Orch), gateway.Options{})
}

func TestInvokeCommand(t *testing.T) {
	c, out := startStack(t)
	if err := c.run([]string{"invoke", "CascSHA", `{"rounds":2,"seed":"ctl"}`}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"digest"`) {
		t.Fatalf("output missing digest:\n%s", out.String())
	}
}

func TestInvokeDefaultsToEmptyArgs(t *testing.T) {
	c, out := startStack(t)
	// MQConsume's arguments are all optional; "{}" must be accepted.
	if err := c.run([]string{"invoke", "MQConsume"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"offset"`) {
		t.Fatalf("output = %s", out.String())
	}
}

func TestInvokeRejectsBadJSON(t *testing.T) {
	c, _ := startStack(t)
	if err := c.run([]string{"invoke", "CascSHA", `{not json`}); err == nil {
		t.Fatal("bad JSON args accepted")
	}
}

// TestInvokeUnknownFunctionFails sends names the gateway does not have,
// one holding a byte Go's %q escapes as \x7f, which is not a JSON escape:
// each must reach the gateway intact and come back as its 404.
func TestInvokeUnknownFunctionFails(t *testing.T) {
	c, out := startStack(t)
	for _, name := range []string{"NoSuchFunction", "bad\x7f"} {
		out.Reset()
		err := c.run([]string{"invoke", name})
		if err == nil || !strings.Contains(err.Error(), "404") {
			t.Fatalf("invoke %q = %v, want the gateway's 404", name, err)
		}
		if !strings.Contains(out.String(), "unknown function") {
			t.Fatalf("invoke %q: error body not printed:\n%s", name, out.String())
		}
	}
}

func TestFunctionsCommand(t *testing.T) {
	c, out := startStack(t)
	if err := c.run([]string{"functions"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CascSHA", "RedisInsert", "MQConsume"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("functions output missing %s", want)
		}
	}
}

func TestWorkersAndStatsCommands(t *testing.T) {
	c, out := startStack(t)
	if err := c.run([]string{"workers"}); err != nil {
		t.Fatal(err)
	}
	// A lone orchestrator is a plane of one: its rows name shard-00.
	if !strings.Contains(out.String(), "live-000") || !strings.Contains(out.String(), "shard-00") {
		t.Fatalf("workers output = %s", out.String())
	}
	out.Reset()
	if err := c.run([]string{"stats"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"completed"`) {
		t.Fatalf("stats output = %s", out.String())
	}
}

func TestUnknownCommand(t *testing.T) {
	c, _ := startStack(t)
	if err := c.run([]string{"destroy-everything"}); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestInvokeRequiresFunctionName(t *testing.T) {
	c, _ := startStack(t)
	if err := c.run([]string{"invoke"}); err == nil {
		t.Fatal("bare invoke accepted")
	}
}

func TestAsyncInvokeAndJobCommands(t *testing.T) {
	c, out := startStack(t)
	c.async = true
	if err := c.run([]string{"invoke", "RegExMatch", `{"pattern":"a","text":"a"}`}); err != nil {
		t.Fatal(err)
	}
	var accepted struct {
		JobID int64 `json:"job_id"`
	}
	if err := json.Unmarshal([]byte(out.String()), &accepted); err != nil || accepted.JobID == 0 {
		t.Fatalf("async invoke output %q, %v", out.String(), err)
	}
	// Poll the job until the result appears.
	c.async = false
	deadline := time.Now().Add(10 * time.Second)
	for {
		out.Reset()
		err := c.run([]string{"job", fmt.Sprintf("%d", accepted.JobID)})
		if err == nil && strings.Contains(out.String(), `"matched"`) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job result never appeared; last output %q, err %v", out.String(), err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startTelemetryStack is startStack with telemetry enabled, so /metrics
// and top have data behind them.
func startTelemetryStack(t *testing.T) (*client, *strings.Builder) {
	t.Helper()
	l, err := cluster.StartLive(cluster.LiveOptions{Workers: 2, Seed: 4, Meter: true, Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	c, sb := serve(t, planeOf(t, l.Orch), gateway.Options{})
	c.interval, c.iterations = 10*time.Millisecond, 2
	return c, sb
}

func TestTopCommand(t *testing.T) {
	c, out := startTelemetryStack(t)
	if err := c.run([]string{"invoke", "CascSHA", `{"rounds":2,"seed":"top"}`}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := c.run([]string{"top"}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"invocations 1", "CascSHA", "J/function", "workers:", "closed", "throughput"} {
		if !strings.Contains(got, want) {
			t.Fatalf("top output missing %q:\n%s", want, got)
		}
	}
}

func TestTopWithoutTelemetry(t *testing.T) {
	c, _ := startStack(t)
	c.iterations = 1
	if err := c.run([]string{"top"}); err == nil || !strings.Contains(err.Error(), "telemetry disabled") {
		t.Fatalf("err = %v, want telemetry-disabled hint", err)
	}
}

// startTracedSimStack runs a seeded MicroFaaS simulation, serves its
// orchestrator through a gateway, and aims a client at it — the fixture
// for the trace-command acceptance test. Every job in the run has a trace.
func startTracedSimStack(t *testing.T) (*client, *strings.Builder, *trace.Collector) {
	t.Helper()
	s, err := cluster.NewMicroFaaSSim(4, cluster.SimConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := s.RunSuite(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, sb := serve(t, planeOf(t, s.Orch), gateway.Options{Mode: "sim"})
	return c, sb, coll
}

// parseTraceTable picks the phase rows and the total row out of the
// trace command's table output.
func parseTraceTable(t *testing.T, out string) (phases map[string]struct {
	dur time.Duration
	j   float64
}, total struct {
	dur time.Duration
	j   float64
}) {
	t.Helper()
	phases = map[string]struct {
		dur time.Duration
		j   float64
	}{}
	sawTotal := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		// Rows look like: "queue  1.2ms  0.000 J  1" / "total  1.9s  2.96 J".
		if len(f) < 4 || f[3] != "J" || f[0] == "phase" {
			continue
		}
		dur, err := time.ParseDuration(f[1])
		if err != nil {
			t.Fatalf("bad duration %q in line %q: %v", f[1], line, err)
		}
		var joules float64
		if _, err := fmt.Sscanf(f[2], "%f", &joules); err != nil {
			t.Fatalf("bad energy %q in line %q: %v", f[2], line, err)
		}
		if f[0] == "total" {
			total.dur, total.j = dur, joules
			sawTotal = true
			continue
		}
		phases[f[0]] = struct {
			dur time.Duration
			j   float64
		}{dur, joules}
	}
	if !sawTotal {
		t.Fatalf("no total row in output:\n%s", out)
	}
	if len(phases) == 0 {
		t.Fatalf("no phase rows in output:\n%s", out)
	}
	return phases, total
}

// TestTraceSlowestCommand is the tracing acceptance check at the CLI:
// `faasctl trace --slowest 1` against a seeded sim run must print a
// phase breakdown whose latencies sum to the end-to-end latency and
// whose joules sum to the invocation's metered energy within 1%.
func TestTraceSlowestCommand(t *testing.T) {
	c, out, coll := startTracedSimStack(t)
	if err := c.run([]string{"trace", "--slowest", "1"}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"job ", "queue", "boot", "exec", "total"} {
		if !strings.Contains(got, want) {
			t.Fatalf("trace output missing %q:\n%s", want, got)
		}
	}
	phases, total := parseTraceTable(t, got)

	// Printed phase durations must sum to the printed total (each row is
	// independently rounded to the microsecond, so allow that much slop
	// per row).
	var sumDur time.Duration
	var sumJ float64
	for _, p := range phases {
		sumDur += p.dur
		sumJ += p.j
	}
	if diff := (sumDur - total.dur).Abs(); diff > time.Duration(len(phases))*time.Microsecond {
		t.Fatalf("phase durations sum to %v, total says %v", sumDur, total.dur)
	}
	if diff := math.Abs(sumJ - total.j); diff > 0.01*total.j+0.001 {
		t.Fatalf("phase joules sum to %.3f, total says %.3f", sumJ, total.j)
	}

	// And the totals must agree with ground truth: the slowest trace's
	// record, its latency exactly and its metered energy within 1%.
	slow := trace.Slowest(trace.Traces(coll), 1)
	if len(slow) != 1 {
		t.Fatalf("the record window has no slowest trace")
	}
	var rec *trace.Record
	records := coll.Records()
	for i := range records {
		if records[i].JobID == slow[0].Root.Job {
			rec = &records[i]
			break
		}
	}
	if rec == nil {
		t.Fatalf("no record for job %d", slow[0].Root.Job)
	}
	if wantLat := rec.Finished - rec.Submitted; (total.dur - wantLat).Abs() > time.Microsecond {
		t.Fatalf("printed latency %v vs record %v", total.dur, wantLat)
	}
	sbc := power.DefaultSBCModel()
	wantJ := rec.Boot.Seconds()*float64(sbc.Power(power.Booting)) +
		(rec.Overhead+rec.Exec).Seconds()*float64(sbc.Power(power.Busy))
	if diff := math.Abs(total.j - wantJ); diff > 0.01*wantJ {
		t.Fatalf("printed energy %.3f J vs metered %.3f J (%.2f%% off)",
			total.j, wantJ, 100*diff/wantJ)
	}
}

func TestTraceByJobCommand(t *testing.T) {
	c, out, coll := startTracedSimStack(t)
	job := coll.Records()[0].JobID
	if err := c.run([]string{"trace", fmt.Sprintf("%d", job)}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), fmt.Sprintf("job %d", job)) {
		t.Fatalf("trace output missing job id:\n%s", out.String())
	}
	parseTraceTable(t, out.String())
}

func TestTraceCommandUsage(t *testing.T) {
	c, out, _ := startTracedSimStack(t)
	if err := c.run([]string{"trace"}); err == nil {
		t.Fatal("bare trace accepted")
	}
	if err := c.run([]string{"trace", "999999"}); err == nil {
		t.Fatal("trace for unknown job succeeded")
	}
	if !strings.Contains(out.String(), "not in the record window") {
		t.Fatalf("a miss does not say the job is not in the record window:\n%s", out.String())
	}
}

// fakeGateway answers 404 to everything but GET /jobs/5, a job still
// pending (202), and counts the requests that reach it.
func fakeGateway(t *testing.T) (*client, *strings.Builder, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/jobs/5" {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintln(w, `{"status":"pending"}`)
			return
		}
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintln(w, `{"error":"not here"}`)
	}))
	t.Cleanup(srv.Close)
	var sb strings.Builder
	return &client{base: srv.URL, http: srv.Client(), out: &sb, iterations: 1}, &sb, &hits
}

// TestHTTPErrorsExitNonzero: every command prints a non-2xx reply's body
// and fails, so the process exits 1; a 202 pending poll is a success.
func TestHTTPErrorsExitNonzero(t *testing.T) {
	for _, args := range [][]string{
		{"job", "999"}, {"forecast"}, {"slo"}, {"alerts"}, {"trace", "7"},
		{"trace", "--slowest", "3"}, {"functions"}, {"stats"}, {"workers"}, {"workers", "-v"},
		{"shards"}, {"power"}, {"power", "cap", "5"},
		{"invoke", "CascSHA"}, {"top"}, {"watch", "m"},
	} {
		c, out, _ := fakeGateway(t)
		if err := c.run(args); err == nil || !strings.Contains(err.Error(), "404") {
			t.Errorf("%v against a 404: err %v, want the status", args, err)
		}
		if !strings.Contains(out.String(), "not here") {
			t.Errorf("%v did not print the 404 body: %q", args, out.String())
		}
	}
	c, out, _ := fakeGateway(t)
	if err := c.run([]string{"job", "5"}); err != nil || !strings.Contains(out.String(), `"pending"`) {
		t.Fatalf("job 5 (pending): err %v, output %q", err, out.String())
	}
}

// TestMalformedOperandsAreUsageErrors: a wattage is a whole finite number
// and a job id or count a positive decimal integer; anything else is
// refused before a request is made.
func TestMalformedOperandsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"power", "cap", "12abc"}, "not a wattage"},
		{[]string{"power", "cap", "NaN"}, "not a wattage"},
		{[]string{"power", "cap", "+Inf"}, "not a wattage"},
		{[]string{"job", "1/../../functions"}, "usage"},
		{[]string{"job", "0"}, "usage"},
		{[]string{"job", "-3"}, "usage"},
		{[]string{"job", "7x"}, "usage"},
		{[]string{"job", "1", "2"}, "usage"},
		{[]string{"trace", "--slowest"}, "usage"},
		{[]string{"trace", "--slowest", "0"}, "usage"},
		{[]string{"trace", "1/../x"}, "usage"},
	} {
		c, _, hits := fakeGateway(t)
		if err := c.run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err %v, want %q", tc.args, err, tc.want)
		}
		if n := hits.Load(); n != 0 {
			t.Errorf("%q reached the gateway %d times", tc.args, n)
		}
	}
}

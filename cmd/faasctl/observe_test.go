package main

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/gateway"
	"microfaas/internal/telemetry"
	"microfaas/internal/tsdb"
)

// startObservedStack is startTelemetryStack plus an embedded time-series
// store behind /query, /slo, and /alerts. The store scrapes the live
// cluster's registry and a hand-driven one (so tests can force exact
// burn trajectories); it is scraped manually — the test owns the clock.
func startObservedStack(t *testing.T, rules []tsdb.Rule) (*client, *strings.Builder, *tsdb.Store, *telemetry.Registry) {
	t.Helper()
	tel := telemetry.New()
	l, err := cluster.StartLive(cluster.LiveOptions{Workers: 2, Seed: 4, Meter: true, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	synth := telemetry.NewRegistry()
	store := tsdb.New(tsdb.Config{})
	store.AddSource("", tel.Registry())
	store.AddSource("", synth)
	if err := store.SetRules(rules); err != nil {
		t.Fatal(err)
	}
	c, sb := serve(t, planeOf(t, l.Orch), gateway.Options{TSDB: store})
	c.interval, c.iterations = 10*time.Millisecond, 1
	return c, sb, store, synth
}

// TestTopOnceRendersSingleFrame pins the -once behavior (main maps the
// flag to iterations=1): exactly one frame, and no throughput column —
// a rate needs two frames.
func TestTopOnceRendersSingleFrame(t *testing.T) {
	c, out := startTelemetryStack(t)
	c.iterations = 1
	if err := c.run([]string{"invoke", "CascSHA", `{"rounds":2,"seed":"once"}`}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := c.run([]string{"top"}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "invocations 1") || !strings.Contains(got, "CascSHA") {
		t.Fatalf("single frame missing dashboard content:\n%s", got)
	}
	if strings.Contains(got, "throughput") {
		t.Fatalf("single frame computed a throughput:\n%s", got)
	}
	if n := strings.Count(got, "invocations"); n != 1 {
		t.Fatalf("%d frames rendered, want 1:\n%s", n, got)
	}
}

// TestTopFlagsAfterSubcommand pins the `faasctl top -once -json`
// spelling: flags after the subcommand must parse (the global flag
// parser stops at the first positional, so the dispatch re-parses),
// and stray positionals are a usage error.
func TestTopFlagsAfterSubcommand(t *testing.T) {
	c, out := startTelemetryStack(t)
	if err := c.run([]string{"invoke", "CascSHA", `{"rounds":2,"seed":"tf"}`}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := c.run([]string{"top", "-once", "-json"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("top -once -json rendered %d lines, want one JSON frame:\n%s", len(lines), out.String())
	}
	var frame struct {
		Invocations float64 `json:"invocations"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &frame); err != nil {
		t.Fatalf("frame %q: %v", lines[0], err)
	}
	if frame.Invocations != 1 {
		t.Fatalf("frame = %+v", frame)
	}
	if err := c.run([]string{"top", "stray"}); err == nil {
		t.Fatal("top with a positional argument accepted")
	}
	if err := c.run([]string{"top", "-no-such-flag"}); err == nil {
		t.Fatal("top with an unknown flag accepted")
	}
}

// TestWatchFlagsAfterSubcommand: `watch <metric> -once` and
// `watch -once <metric>` both parse — flags and positionals interleave.
func TestWatchFlagsAfterSubcommand(t *testing.T) {
	c, out, store, _ := startObservedStack(t, nil)
	c.iterations = 0 // would loop forever if -once were dropped
	if err := c.run([]string{"invoke", "CascSHA", `{"rounds":2,"seed":"wf"}`}); err != nil {
		t.Fatal(err)
	}
	store.Scrape(time.Second)
	out.Reset()
	if err := c.run([]string{"watch", "microfaas_jobs_submitted_total", "-once"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "microfaas_jobs_submitted_total (last)") {
		t.Fatalf("watch metric -once output:\n%s", out.String())
	}
	out.Reset()
	c.iterations = 0
	if err := c.run([]string{"watch", "-once", "microfaas_jobs_submitted_total", "rate"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "microfaas_jobs_submitted_total (rate)") {
		t.Fatalf("watch -once metric op output:\n%s", out.String())
	}
}

// TestTopJSONEmitsFramePerRefresh pins -json: one parseable JSON object
// per refresh (NDJSON when looping), carrying the same aggregates the
// table renders.
func TestTopJSONEmitsFramePerRefresh(t *testing.T) {
	c, out := startTelemetryStack(t)
	c.jsonOut = true
	c.iterations = 2
	if err := c.run([]string{"invoke", "CascSHA", `{"rounds":2,"seed":"json"}`}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := c.run([]string{"top"}); err != nil {
		t.Fatal(err)
	}
	frames := 0
	sc := bufio.NewScanner(strings.NewReader(out.String()))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var frame struct {
			Invocations float64 `json:"invocations"`
			Functions   []struct {
				Function string  `json:"function"`
				OK       float64 `json:"ok"`
			} `json:"functions"`
		}
		if err := json.Unmarshal([]byte(line), &frame); err != nil {
			t.Fatalf("frame %q: %v", line, err)
		}
		if frame.Invocations != 1 || len(frame.Functions) != 1 || frame.Functions[0].Function != "CascSHA" {
			t.Fatalf("frame = %+v", frame)
		}
		frames++
	}
	if frames != 2 {
		t.Fatalf("%d JSON frames, want 2", frames)
	}
}

func TestWatchCommandRendersSparkline(t *testing.T) {
	c, out, store, _ := startObservedStack(t, nil)
	if err := c.run([]string{"invoke", "CascSHA", `{"rounds":2,"seed":"w"}`}); err != nil {
		t.Fatal(err)
	}
	store.Scrape(time.Second)
	if err := c.run([]string{"invoke", "CascSHA", `{"rounds":2,"seed":"w2"}`}); err != nil {
		t.Fatal(err)
	}
	store.Scrape(2 * time.Second)
	out.Reset()

	// The lookback window scales with the refresh interval; widen it so
	// both synthetic scrape instants land inside.
	c.interval = time.Second
	if err := c.run([]string{"watch", "microfaas_jobs_submitted_total"}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "microfaas_jobs_submitted_total (last)") {
		t.Fatalf("watch header missing:\n%s", got)
	}
	if !strings.ContainsAny(got, "▁▂▃▄▅▆▇█") {
		t.Fatalf("watch frame has no sparkline:\n%s", got)
	}

	// An unseen metric renders a hint, not an error.
	out.Reset()
	if err := c.run([]string{"watch", "no_such_metric"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no series") {
		t.Fatalf("unseen metric output = %s", out.String())
	}

	// Usage errors: no metric, and a bad op bubbled up from the gateway.
	if err := c.run([]string{"watch"}); err == nil {
		t.Fatal("bare watch accepted")
	}
	if err := c.run([]string{"watch", "microfaas_jobs_submitted_total", "median"}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestSLOAndAlertsCommands(t *testing.T) {
	rules := []tsdb.Rule{{
		Name: "errors", Kind: tsdb.KindErrorRatio, Function: "f", Target: 0.9,
		Windows: &tsdb.Windows{
			FastShort: tsdb.Duration(2 * time.Second), FastLong: tsdb.Duration(4 * time.Second), FastBurn: 2,
			SlowShort: tsdb.Duration(4 * time.Second), SlowLong: tsdb.Duration(8 * time.Second), SlowBurn: 2,
		},
	}}
	c, out, store, synth := startObservedStack(t, rules)
	okC := synth.Counter(tsdb.DefaultErrorMetric, "outcomes", "function", "f", "result", "ok")
	errC := synth.Counter(tsdb.DefaultErrorMetric, "outcomes", "function", "f", "result", "error")

	now := time.Duration(0)
	step := func(ok, errs int) {
		okC.Add(float64(ok))
		errC.Add(float64(errs))
		now += time.Second
		store.Scrape(now)
	}
	for i := 0; i < 6; i++ {
		step(100, 0)
	}

	// Healthy: the slo table shows both pages "ok", alerts reports none.
	if err := c.run([]string{"slo"}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "errors") || !strings.Contains(got, "error_ratio") ||
		strings.Count(got, "ok") < 2 || strings.Contains(got, "FIRING") {
		t.Fatalf("healthy slo table:\n%s", got)
	}
	out.Reset()
	if err := c.run([]string{"alerts"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no alerts firing") {
		t.Fatalf("healthy alerts output = %s", out.String())
	}

	// Outage: both pages cross their thresholds.
	for i := 0; i < 6; i++ {
		step(0, 100)
	}
	out.Reset()
	if err := c.run([]string{"slo"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "FIRING") {
		t.Fatalf("slo table shows no firing page during outage:\n%s", out.String())
	}
	out.Reset()
	if err := c.run([]string{"alerts"}); err != nil {
		t.Fatal(err)
	}
	got = out.String()
	if !strings.Contains(got, "errors") || !strings.Contains(got, "history:") ||
		!strings.Contains(got, string(tsdb.EventAlertFiring)) {
		t.Fatalf("alerts during outage:\n%s", got)
	}
}

func TestSLOCommandWithoutRules(t *testing.T) {
	c, out, _, _ := startObservedStack(t, nil)
	if err := c.run([]string{"slo"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no SLO rules configured") {
		t.Fatalf("output = %s", out.String())
	}
}

package tsdb

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"microfaas/internal/telemetry"
)

// scrapeN drives n scrapes at a fixed interval, calling step before
// each so the test can advance its counters.
func scrapeN(s *Store, n int, interval time.Duration, step func(i int)) {
	for i := 0; i < n; i++ {
		if step != nil {
			step(i)
		}
		s.Scrape(time.Duration(i+1) * interval)
	}
}

func TestScrapeAndQueryOps(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("jobs_total", "jobs")
	g := reg.Gauge("depth", "queue depth")
	s := New(Config{})
	s.AddSource("shard-00", reg)

	// Counter +2/s for 10s at 1s scrapes; gauge walks 0..9.
	scrapeN(s, 10, time.Second, func(i int) {
		c.Add(2)
		g.Set(float64(i))
	})

	cases := []struct {
		op   Op
		want float64
	}{
		{OpLast, 9},
		{OpMin, 0},
		{OpMax, 9},
		{OpAvg, 4.5},
	}
	for _, tc := range cases {
		res, err := s.Query(Query{Metric: "depth", Op: tc.op, Window: time.Minute})
		if err != nil {
			t.Fatalf("%s: %v", tc.op, err)
		}
		if len(res) != 1 || res[0].Value != tc.want {
			t.Fatalf("%s = %+v, want single series value %g", tc.op, res, tc.want)
		}
		if res[0].Labels["shard"] != "shard-00" {
			t.Fatalf("%s: missing injected shard label: %v", tc.op, res[0].Labels)
		}
	}

	inc, err := s.Query(Query{Metric: "jobs_total", Op: OpIncrease, Window: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// First scrape saw 2, last saw 20: increase across retained window is 18.
	if len(inc) != 1 || inc[0].Value != 18 {
		t.Fatalf("increase = %+v, want 18", inc)
	}
	rate, err := s.Query(Query{Metric: "jobs_total", Op: OpRate, Window: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(rate) != 1 || math.Abs(rate[0].Value-2) > 1e-9 {
		t.Fatalf("rate = %+v, want 2/s", rate)
	}

	if res, err := s.Query(Query{Metric: "no_such_metric"}); err != nil || len(res) != 0 {
		t.Fatalf("unknown metric: res=%v err=%v, want empty and nil", res, err)
	}
	if _, err := s.Query(Query{Metric: "depth", Op: "median"}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := s.Query(Query{}); err == nil {
		t.Fatal("empty metric accepted")
	}
}

func TestQueryRangePoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := reg.Gauge("v", "value")
	s := New(Config{})
	s.AddSource("", reg)
	scrapeN(s, 5, time.Second, func(i int) { g.Set(float64(i * i)) })
	res, err := s.Query(Query{Metric: "v", Op: OpLast, Window: time.Minute, Range: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Points) != 5 {
		t.Fatalf("range points = %+v, want 5 points", res)
	}
	for i, p := range res[0].Points {
		if p.At != time.Duration(i+1)*time.Second || p.Value != float64(i*i) {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
}

func TestTierFallbackAfterRawEviction(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("n_total", "count")
	// Raw ring of 8 points, tiers at 10s/1m: 100 scrapes at 1s leaves raw
	// covering only the last 8s, so a full-horizon window must fall back
	// to a downsample tier.
	s := New(Config{RawCapacity: 8})
	s.AddSource("", reg)
	scrapeN(s, 100, time.Second, func(i int) { c.Inc() })

	res, err := s.Query(Query{Metric: "n_total", Op: OpIncrease, Window: 90 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("series = %+v", res)
	}
	// Tier-1 buckets (10s) serve the window [10s, 100s]: the counter read
	// 10 at the window start and 100 at the end, so increase is 90.
	if got := res[0].Value; got != 90 {
		t.Fatalf("tier-fallback increase = %g, want 90", got)
	}
	// A window the raw ring still covers answers from raw.
	res, err = s.Query(Query{Metric: "n_total", Op: OpIncrease, Window: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Value; got != 5 {
		t.Fatalf("raw increase = %g, want 5", got)
	}
}

func TestQuantileOverTimeMergesShards(t *testing.T) {
	bounds := []float64{0.1, 1, 10}
	regA, regB := telemetry.NewRegistry(), telemetry.NewRegistry()
	hA := regA.Histogram("lat_seconds", "latency", bounds)
	hB := regB.Histogram("lat_seconds", "latency", bounds)
	s := New(Config{})
	s.AddSource("shard-00", regA)
	s.AddSource("shard-01", regB)

	s.Scrape(time.Second) // zero baseline
	// Shard A: 30 fast (≤0.1), shard B: 50 medium (≤1) + 20 slow (≤10).
	for i := 0; i < 30; i++ {
		hA.Observe(0.05)
	}
	for i := 0; i < 50; i++ {
		hB.Observe(0.5)
	}
	for i := 0; i < 20; i++ {
		hB.Observe(5)
	}
	s.Scrape(2 * time.Second)

	res, err := s.Query(Query{Metric: "lat_seconds", Op: OpQuantile, Q: 0.5, Window: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("quantile results = %+v", res)
	}
	// Merged distribution: 30/100 ≤ 0.1, 80/100 ≤ 1 → p50 interpolates
	// inside the (0.1, 1] bucket.
	if v := res[0].Value; v <= 0.1 || v > 1 {
		t.Fatalf("p50 = %g, want within (0.1, 1]", v)
	}
	// p99 lands in the slowest finite bucket.
	res, err = s.Query(Query{Metric: "lat_seconds", Op: OpQuantile, Q: 0.99, Window: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if v := res[0].Value; v <= 1 || v > 10 {
		t.Fatalf("p99 = %g, want within (1, 10]", v)
	}
	for _, q := range []float64{1.5, -0.5, math.NaN()} {
		if _, err := s.Query(Query{Metric: "lat_seconds", Op: OpQuantile, Q: q}); err == nil {
			t.Fatalf("out-of-range quantile %v accepted", q)
		}
	}
}

func TestSLOLatencyBurnFiresAndResolves(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram(DefaultLatencyMetric, "latency", []float64{0.1, 1, 10})
	s := New(Config{})
	s.AddSource("shard-00", reg)
	win := &Windows{
		FastShort: Duration(2 * time.Second), FastLong: Duration(4 * time.Second), FastBurn: 2,
		SlowShort: Duration(4 * time.Second), SlowLong: Duration(8 * time.Second), SlowBurn: 1.5,
	}
	rule := Rule{Name: "p99-latency", Kind: KindLatency, ThresholdS: 1, Target: 0.9, Windows: win}
	if err := s.SetRules([]Rule{rule}); err != nil {
		t.Fatal(err)
	}

	now := time.Duration(0)
	step := func(slow, fast int) {
		for i := 0; i < slow; i++ {
			h.Observe(5)
		}
		for i := 0; i < fast; i++ {
			h.Observe(0.05)
		}
		now += time.Second
		s.Scrape(now)
	}

	// Healthy traffic: all fast.
	for i := 0; i < 6; i++ {
		step(0, 10)
	}
	if alerts := s.ActiveAlerts(); len(alerts) != 0 {
		t.Fatalf("alerts while healthy: %+v", alerts)
	}
	// Regression: every invocation slow → bad fraction 1.0, burn 10 ≫ 2.
	for i := 0; i < 6; i++ {
		step(10, 0)
	}
	alerts := s.ActiveAlerts()
	if len(alerts) == 0 {
		t.Fatal("no alert during sustained 100% slow traffic")
	}
	if alerts[0].Rule != "p99-latency" {
		t.Fatalf("alert = %+v", alerts[0])
	}
	// Recovery: fast traffic long enough to flush both window pairs.
	for i := 0; i < 12; i++ {
		step(0, 10)
	}
	if alerts := s.ActiveAlerts(); len(alerts) != 0 {
		t.Fatalf("alerts after recovery: %+v", alerts)
	}

	// The transition history holds firing events followed by resolutions,
	// stamped with the rule name and page.
	hist := s.AlertHistory()
	var fired, resolved int
	for _, ev := range hist {
		switch ev.Type {
		case EventAlertFiring:
			fired++
		case EventAlertResolved:
			resolved++
		default:
			t.Fatalf("unexpected event type %q", ev.Type)
		}
		if ev.Function != "p99-latency" || (ev.Worker != "fast" && ev.Worker != "slow") {
			t.Fatalf("bad transition event: %+v", ev)
		}
	}
	if fired == 0 || fired != resolved {
		t.Fatalf("history fired=%d resolved=%d, want equal and nonzero", fired, resolved)
	}

	// SLOStatus reports both pages quiet again.
	status := s.SLOStatus()
	if len(status) != 1 || len(status[0].Pages) != 2 {
		t.Fatalf("status = %+v", status)
	}
	for _, p := range status[0].Pages {
		if p.Firing {
			t.Fatalf("page %s still firing after recovery: %+v", p.Page, p)
		}
	}
}

func TestSLOErrorRatioAndEnergyBudget(t *testing.T) {
	reg := telemetry.NewRegistry()
	okC := reg.Counter(DefaultErrorMetric, "outcomes", "function", "f", "result", "ok")
	errC := reg.Counter(DefaultErrorMetric, "outcomes", "function", "f", "result", "error")
	joules := reg.Counter(DefaultEnergyMetric, "energy", "function", "f")
	s := New(Config{})
	s.AddSource("", reg)
	win := &Windows{
		FastShort: Duration(2 * time.Second), FastLong: Duration(4 * time.Second), FastBurn: 2,
		SlowShort: Duration(4 * time.Second), SlowLong: Duration(8 * time.Second), SlowBurn: 2,
	}
	rules := []Rule{
		{Name: "errors", Kind: KindErrorRatio, Function: "f", Target: 0.95, Windows: win},
		{Name: "energy", Kind: KindEnergyBudget, Function: "f", BudgetJ: 10, Windows: win},
	}
	if err := s.SetRules(rules); err != nil {
		t.Fatal(err)
	}

	now := time.Duration(0)
	step := func(ok, errs int, j float64) {
		okC.Add(float64(ok))
		errC.Add(float64(errs))
		joules.Add(j)
		now += time.Second
		s.Scrape(now)
	}
	// Within budget: 1% errors, 5 J per completion.
	for i := 0; i < 6; i++ {
		step(99, 1, 500)
	}
	if alerts := s.ActiveAlerts(); len(alerts) != 0 {
		t.Fatalf("alerts while in budget: %+v", alerts)
	}
	// Blow both budgets: 50% errors, 50 J per completion.
	for i := 0; i < 6; i++ {
		step(50, 50, 5000)
	}
	alerts := s.ActiveAlerts()
	names := map[string]bool{}
	for _, a := range alerts {
		names[a.Rule] = true
	}
	if !names["errors"] || !names["energy"] {
		t.Fatalf("want both rules firing, got %+v", alerts)
	}
}

func TestArrivalTrackerEWMAAndForecasts(t *testing.T) {
	reg := telemetry.NewRegistry()
	sub := reg.Counter(MetricSubmittedByFunction, "submissions", "function", "matmul")
	s := New(Config{})
	s.AddSource("shard-00", reg)

	// 5/s for 8 scrapes.
	scrapeN(s, 8, time.Second, func(i int) { sub.Add(5) })

	res, err := s.Query(Query{Metric: MetricArrivalRate, Op: OpLast, Window: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Value != 5 {
		t.Fatalf("arrival rate = %+v, want 5/s", res)
	}
	if res[0].Labels["function"] != "matmul" {
		t.Fatalf("rate labels = %v", res[0].Labels)
	}
	ew, err := s.Query(Query{Metric: MetricArrivalEWMA, Op: OpLast, Window: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(ew) != 1 || math.Abs(ew[0].Value-5) > 1e-9 {
		t.Fatalf("steady-state EWMA = %+v, want 5", ew)
	}

	fc := s.Forecasts()
	if len(fc) != 1 || fc[0].Function != "matmul" {
		t.Fatalf("forecasts = %+v", fc)
	}
	if fc[0].WindowMean != 5 || fc[0].WindowMax != 5 || math.Abs(fc[0].EWMA-5) > 1e-9 {
		t.Fatalf("forecast = %+v, want 5 across the board", fc[0])
	}
}

// TestWriteNDJSON exports a worker-labelled gauge: by default as its
// shard's sum, and — once an export names the worker and one more scrape
// has run — also as the worker's own series, from that scrape on. Naming a
// worker no source has exports nothing and adds no series.
func TestWriteNDJSON(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := reg.Gauge("depth", "queue depth", "worker", "w0")
	reg.Gauge("depth", "queue depth", "worker", "w1").Set(10)
	s := New(Config{})
	s.AddSource("shard-01", reg)
	scrapeN(s, 3, time.Second, func(i int) { g.Set(float64(i)) })

	export := func(match map[string]string) []string {
		t.Helper()
		var b strings.Builder
		if err := s.WriteNDJSON(&b, "depth", match, 0); err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			return nil
		}
		return strings.Split(strings.TrimSpace(b.String()), "\n")
	}
	lines := export(nil)
	if len(lines) != 3 {
		t.Fatalf("ndjson lines = %d: %q", len(lines), lines)
	}
	want := `{"metric":"depth","labels":{"shard":"shard-01"},"at_ms":1000,"value":10}`
	if lines[0] != want {
		t.Fatalf("line 0 = %s, want %s", lines[0], want)
	}

	// Naming w0 returns nothing yet; the next scrape starts its history.
	if lines := export(map[string]string{"worker": "w0"}); lines != nil {
		t.Fatalf("w0 exported before a scrape recorded it: %q", lines)
	}
	g.Set(7)
	s.Scrape(4 * time.Second)
	lines = export(map[string]string{"worker": "w0"})
	want = `{"metric":"depth","labels":{"shard":"shard-01","worker":"w0"},"at_ms":4000,"value":7}`
	if len(lines) != 1 || lines[0] != want {
		t.Fatalf("w0 after one scrape = %q, want [%s]", lines, want)
	}
	if lines := export(nil); len(lines) != 5 || lines[3] != `{"metric":"depth","labels":{"shard":"shard-01"},"at_ms":4000,"value":17}` {
		t.Fatalf("the shard sum stopped counting w0: %q", lines)
	}

	// A worker no source has: nothing matches, and nothing is added.
	series := s.SeriesCount()
	if lines := export(map[string]string{"worker": "nope"}); lines != nil {
		t.Fatalf("filtered export not empty: %q", lines)
	}
	s.Scrape(5 * time.Second)
	if got := s.SeriesCount(); got != series {
		t.Fatalf("naming an unknown worker took the store from %d series to %d", series, got)
	}
}

func TestParseRulesValidation(t *testing.T) {
	good := `[{"name":"p99","kind":"latency","threshold_s":1,"target":0.99}]`
	rules, err := ParseRules([]byte(good))
	if err != nil || len(rules) != 1 {
		t.Fatalf("good rules: %v %v", rules, err)
	}
	bad := []string{
		`[]`, // empty
		`[{"name":"","kind":"latency","threshold_s":1,"target":0.99}]`,   // no name
		`[{"name":"x","kind":"nope"}]`,                                   // unknown kind
		`[{"name":"x","kind":"latency","threshold_s":-1,"target":0.99}]`, // bad threshold
		`[{"name":"x","kind":"latency","threshold_s":1,"target":1.5}]`,   // bad target
		`[{"name":"x","kind":"energy_budget","budget_j":-5}]`,            // bad budget
		`[{"name":"x","kind":"latency","threshold_s":1,"target":0.9,"windows":{"fast_short":"1h","fast_long":"5m","fast_burn":14,"slow_short":"30m","slow_long":"6h","slow_burn":6}}]`, // short > long
		`not json`,
		// A function scope over a metric with no function label.
		`[{"name":"x","kind":"latency","threshold_s":1,"target":0.9,"function":"MatMul"}]`,
		`[{"name":"x","kind":"energy_budget","budget_j":5,"function":"MatMul","metric":"microfaas_cluster_energy_joules_total"}]`,
	}
	for _, tc := range bad {
		if _, err := ParseRules([]byte(tc)); err == nil {
			t.Fatalf("accepted bad rules: %s", tc)
		}
	}
	// Such a rule could never fire, and the error says why; over a
	// histogram that does carry the label the scope is accepted.
	scoped := Rule{Name: "x", Kind: KindLatency, ThresholdS: 1, Target: 0.9, Function: "MatMul"}
	if err := scoped.Validate(); err == nil || !strings.Contains(err.Error(), "no function label") {
		t.Fatalf("function-scoped latency rule: %v", err)
	}
	scoped.Metric = "custom_latency_seconds"
	if err := scoped.Validate(); err != nil {
		t.Fatalf("function-scoped latency rule over a custom histogram: %v", err)
	}
	// Metric catalogue check.
	r := Rule{Name: "x", Kind: KindLatency, ThresholdS: 1, Target: 0.9, Metric: "typo_metric"}
	if err := r.ValidateMetric(KnownMetrics()); err == nil {
		t.Fatal("unknown metric accepted")
	}
	r.Metric = ""
	if err := r.ValidateMetric(KnownMetrics()); err != nil {
		t.Fatalf("default metric rejected: %v", err)
	}
}

func TestNilStoreNoOps(t *testing.T) {
	var s *Store
	s.AddSource("x", telemetry.NewRegistry())
	s.Scrape(time.Second)
	if res, err := s.Query(Query{Metric: "m"}); res != nil || err != nil {
		t.Fatal("nil query should return nil, nil")
	}
	if err := s.SetRules([]Rule{{}}); err != nil {
		t.Fatal("nil SetRules should no-op")
	}
	if s.SLOStatus() != nil || s.ActiveAlerts() != nil || s.Forecasts() != nil {
		t.Fatal("nil status calls should return nil")
	}
	if s.MetricNames() != nil || s.SeriesCount() != 0 {
		t.Fatal("nil store reports data")
	}
	if err := s.WriteNDJSON(&strings.Builder{}, "", nil, 0); err != nil {
		t.Fatal(err)
	}
	stop := s.Start(func() time.Duration { return 0 }, time.Second)
	stop()
}

func TestSnapshotMatchesExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("a_total", "a", "function", "f").Add(3)
	reg.Gauge("b", "b").Set(7)
	reg.Histogram("h_seconds", "h", []float64{1, 2}).Observe(1.5)

	var text strings.Builder
	if err := reg.WritePrometheusLabeled(&text, "shard", "s0"); err != nil {
		t.Fatal(err)
	}
	parsed, err := telemetry.ParseText(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot("shard", "s0")
	if len(snap) != len(parsed) {
		t.Fatalf("snapshot has %d samples, exposition %d", len(snap), len(parsed))
	}
	for i, smp := range snap {
		p := parsed[i]
		if smp.Name != p.Name || smp.Value != p.Value {
			t.Fatalf("sample %d: snapshot %+v vs parsed %+v", i, smp, p)
		}
		if len(smp.Labels) != len(p.Labels) {
			t.Fatalf("sample %d labels: %v vs %v", i, smp.Labels, p.Labels)
		}
		for k, v := range p.Labels {
			if smp.Labels[k] != v {
				t.Fatalf("sample %d label %s: %q vs %q", i, k, smp.Labels[k], v)
			}
		}
	}
}

func TestScrapeIsDeterministic(t *testing.T) {
	build := func() *Store {
		reg := telemetry.NewRegistry()
		c := reg.Counter("n_total", "count", "function", "f")
		g := reg.Gauge("d", "depth")
		s := New(Config{})
		s.AddSource("shard-00", reg)
		scrapeN(s, 20, 250*time.Millisecond, func(i int) {
			c.Add(float64(i % 3))
			g.Set(float64(i))
		})
		return s
	}
	var a, b strings.Builder
	if err := build().WriteNDJSON(&a, "", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteNDJSON(&b, "", nil, 0); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two identical runs exported different series")
	}
}

// TestAlertHistoryKeepsNewest drives more than DefaultAlertCapacity page
// transitions through the SLO engine — 64 rules, each firing and
// resolving both pages per cycle of slow then fast traffic — and checks
// the history keeps the newest DefaultAlertCapacity, oldest first,
// numbered without gaps up to the last transition made.
func TestAlertHistoryKeepsNewest(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram(DefaultLatencyMetric, "latency", []float64{0.1, 1, 10})
	s := New(Config{})
	s.AddSource("shard-00", reg)
	win := &Windows{
		FastShort: Duration(2 * time.Second), FastLong: Duration(4 * time.Second), FastBurn: 2,
		SlowShort: Duration(4 * time.Second), SlowLong: Duration(8 * time.Second), SlowBurn: 1.5,
	}
	rules := make([]Rule, 64)
	for i := range rules {
		rules[i] = Rule{Name: "p99-" + strconv.Itoa(i), Kind: KindLatency, ThresholdS: 1, Target: 0.9, Windows: win}
	}
	if err := s.SetRules(rules); err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	step := func(latency float64) {
		for i := 0; i < 10; i++ {
			h.Observe(latency)
		}
		now += time.Second
		s.Scrape(now)
	}
	const cycles = 5 // 5 × 64 rules × 2 pages × (fire + resolve) = 1,280
	for c := 0; c < cycles; c++ {
		for i := 0; i < 6; i++ {
			step(5)
		}
		for i := 0; i < 12; i++ {
			step(0.05)
		}
	}

	hist := s.AlertHistory()
	const made = cycles * 64 * 2 * 2
	if len(hist) != DefaultAlertCapacity || hist[len(hist)-1].Seq != made-1 {
		t.Fatalf("history holds %d transitions ending at seq %d, want the newest %d of %d",
			len(hist), hist[len(hist)-1].Seq, DefaultAlertCapacity, made)
	}
	for i := 1; i < len(hist); i++ {
		a, b := hist[i-1], hist[i]
		if b.Seq != a.Seq+1 || b.AtMs < a.AtMs {
			t.Fatalf("history out of order at %d: %+v then %+v", i, a, b)
		}
	}
	if last := hist[len(hist)-1]; last.Type != EventAlertResolved {
		t.Fatalf("newest transition %+v, want a resolution after the fast traffic", last)
	}
}

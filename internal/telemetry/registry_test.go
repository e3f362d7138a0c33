package telemetry

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs", "function", "MatMul")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	// Get-or-create: same handle for same labels, distinct otherwise.
	if r.Counter("jobs_total", "jobs", "function", "MatMul") != c {
		t.Fatal("same labels returned a different handle")
	}
	if r.Counter("jobs_total", "jobs", "function", "CascSHA") == c {
		t.Fatal("different labels shared a handle")
	}
	g := r.Gauge("queue_depth", "depth")
	g.Set(4)
	g.Add(-1)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
}

func TestCounterNegativeAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter add did not panic")
		}
	}()
	NewRegistry().Counter("c_total", "").Add(-1)
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestLabelMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("y_total", "", "worker", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched label names did not panic")
		}
	}()
	r.Counter("y_total", "", "function", "a")
}

func TestInvalidNamesPanic(t *testing.T) {
	for _, name := range []string{"", "9lead", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q accepted", name)
				}
			}()
			NewRegistry().Counter(name, "")
		}()
	}
}

func TestNilSafety(t *testing.T) {
	var tel *Telemetry
	var r *Registry
	c := r.Counter("a_total", "")
	c.Inc()
	c.Add(2)
	if c.Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	g := r.Gauge("b", "")
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge holds a value")
	}
	h := r.Histogram("h", "", []float64{1})
	h.Observe(0.5)
	if h != nil {
		t.Fatal("nil registry made a histogram")
	}
	r.CounterFunc("fn_total", "", nil) // nil fn on nil registry: no panic
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if tel.Registry() != nil {
		t.Fatal("nil telemetry exposed a registry")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 100} {
		h.Observe(v)
	}
	c := h.child
	if c.count != 5 {
		t.Fatalf("count = %d", c.count)
	}
	if math.Abs(c.sum-106.05) > 1e-9 {
		t.Fatalf("sum = %v", c.sum)
	}
	quantile := func(q float64) float64 { return QuantileFromCumulative(c.bucketBounds, c.counts, c.count, q) }
	// Cumulative buckets: ≤0.1 → 1, ≤1 → 3, ≤10 → 4, +Inf → 5.
	if q := quantile(0.5); q != 1 {
		t.Fatalf("p50 = %v, want 1", q)
	}
	// p99 lands in the +Inf bucket → highest finite bound.
	if q := quantile(0.99); q != 10 {
		t.Fatalf("p99 = %v, want 10", q)
	}
	if q := quantile(0); q != 0.1 {
		t.Fatalf("p0 = %v, want 0.1", q)
	}
}

func TestLogBucketsMirrorTraceHistogram(t *testing.T) {
	b := LogBuckets(0.001, 60, 14)
	if len(b) != 14 || b[0] != 0.001 || b[13] != 60 {
		t.Fatalf("buckets = %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("buckets not increasing at %d: %v", i, b)
		}
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %v, want 8000", c.Value())
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("microfaas_jobs_submitted_total", "Jobs accepted by the OP.").Add(3)
	r.Gauge("microfaas_queue_depth", "Queued jobs.", "worker", `od"d\x`).Set(2)
	r.Histogram("microfaas_latency_seconds", "", []float64{0.5, 5}).Observe(0.2)
	r.GaugeFunc("microfaas_power_watts", "Instantaneous draw.", func() float64 { return 19.6 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE microfaas_jobs_submitted_total counter\n",
		"microfaas_jobs_submitted_total 3\n",
		"# HELP microfaas_jobs_submitted_total Jobs accepted by the OP.\n",
		`microfaas_queue_depth{worker="od\"d\\x"} 2` + "\n",
		"# TYPE microfaas_latency_seconds histogram\n",
		`microfaas_latency_seconds_bucket{le="0.5"} 1` + "\n",
		`microfaas_latency_seconds_bucket{le="+Inf"} 1` + "\n",
		"microfaas_latency_seconds_sum 0.2\n",
		"microfaas_latency_seconds_count 1\n",
		"microfaas_power_watts 19.6\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families are sorted by name: jobs < latency < power < queue.
	idx := func(s string) int { return strings.Index(out, "# TYPE "+s) }
	if !(idx("microfaas_jobs_submitted_total") < idx("microfaas_latency_seconds") &&
		idx("microfaas_latency_seconds") < idx("microfaas_power_watts") &&
		idx("microfaas_power_watts") < idx("microfaas_queue_depth")) {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help", "function", "Casc SHA").Add(7)
	r.Histogram("lat_seconds", "", []float64{0.1, 1}, "mode", "sim").Observe(0.05)
	r.GaugeFunc("watts", "", func() float64 { return 1.5 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	ss, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := ss.Value("a_total", "function", "Casc SHA"); !ok || v != 7 {
		t.Fatalf("a_total = %v, %v", v, ok)
	}
	if v, ok := ss.Value("watts"); !ok || v != 1.5 {
		t.Fatalf("watts = %v, %v", v, ok)
	}
	if v, ok := ss.Value("lat_seconds_count", "mode", "sim"); !ok || v != 1 {
		t.Fatalf("lat count = %v, %v", v, ok)
	}
	if q := ss.HistogramQuantile("lat_seconds", 0.5, "mode", "sim"); q != 0.1 {
		t.Fatalf("parsed p50 = %v, want 0.1", q)
	}
	if fns := ss.LabelValues("a_total", "function"); len(fns) != 1 || fns[0] != "Casc SHA" {
		t.Fatalf("label values = %v", fns)
	}
}

// TestLabeledExpositionRoundTrip closes the loop a sharded gateway
// depends on: WritePrometheusLabeled injects a shard label into every
// sample line — escapes and all — and ParseText recovers the exact
// label set, so per-shard series stay distinct and aggregate with Sum.
func TestLabeledExpositionRoundTrip(t *testing.T) {
	// The injected value exercises every escape the text format defines.
	shardValue := "sh\"ard\\00\nline"
	r := NewRegistry()
	r.Counter("jobs_total", "jobs", "function", "Casc SHA", "result", "ok").Add(3)
	r.Counter("jobs_total", "jobs", "function", "Casc SHA", "result", "error").Add(1)
	r.Histogram("lat_seconds", "", []float64{0.1, 1}, "mode", "sim").Observe(0.05)
	r.GaugeFunc("watts", "", func() float64 { return 2.5 })

	var b strings.Builder
	if err := r.WritePrometheusLabeled(&b, "shard", shardValue); err != nil {
		t.Fatal(err)
	}
	ss, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("labeled exposition does not parse: %v\n%s", err, b.String())
	}
	for _, s := range ss {
		if s.Labels["shard"] != shardValue {
			t.Fatalf("sample %s lost the injected label: %v", s.Name, s.Labels)
		}
	}
	// Original labels survive next to the injected one, on scalars and on
	// every expanded histogram series.
	if v, ok := ss.Value("jobs_total", "function", "Casc SHA", "result", "ok", "shard", shardValue); !ok || v != 3 {
		t.Fatalf("ok counter = %v, %v", v, ok)
	}
	for _, name := range []string{"lat_seconds_bucket", "lat_seconds_sum", "lat_seconds_count"} {
		found := false
		for _, s := range ss {
			if s.Name == name && s.Labels["mode"] == "sim" && s.Labels["shard"] == shardValue {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s missing mode+shard labels:\n%s", name, b.String())
		}
	}
	if q := ss.HistogramQuantile("lat_seconds", 0.5, "shard", shardValue); q != 0.1 {
		t.Fatalf("quantile through injected label = %v, want 0.1", q)
	}

	// Two shards' expositions concatenated — exactly what a sharded
	// gateway's /metrics serves — keep same-named series distinct by
	// shard and aggregate with Sum.
	r2 := NewRegistry()
	r2.Counter("jobs_total", "jobs", "function", "Casc SHA", "result", "ok").Add(5)
	if err := r2.WritePrometheusLabeled(&b, "shard", "shard-01"); err != nil {
		t.Fatal(err)
	}
	merged, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("merged exposition does not parse: %v", err)
	}
	if got := merged.Sum("jobs_total", "function", "Casc SHA", "result", "ok"); got != 8 {
		t.Fatalf("cross-shard Sum = %v, want 8", got)
	}
	if got := merged.Sum("jobs_total", "result", "ok", "shard", "shard-01"); got != 5 {
		t.Fatalf("single-shard Sum = %v, want 5", got)
	}
}

// TestLabelValuesWithNULKeepTheirSeries pins the series key's injectivity:
// label values joined by NUL bytes alone made these two label sets one
// key, so the second call returned the first's child.
func TestLabelValuesWithNULKeepTheirSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", "a", "p\x00q", "b", "r")
	b := r.Counter("x_total", "", "a", "p", "b", "q\x00r")
	if a == b {
		t.Fatal("label sets {p\\0q, r} and {p, q\\0r} share one series")
	}
	if got := (*child)(b).labelValues; !slices.Equal(got, []string{"p", "q\x00r"}) {
		t.Fatalf("second series carries label values %q", got)
	}
	if r.Counter("x_total", "", "a", "p\x00q", "b", "r") != a {
		t.Fatal("a lookup of the first label set returned another series")
	}
}

// TestExistingSeriesLookupAllocatesNothing pins the hit path of the typed
// accessors: callers with an open label set (a function name per job)
// resolve their series on every call, so finding one that exists must not
// validate, build slices or allocate a key — for any label count — and
// must return the very series creation did.
func TestExistingSeriesLookupAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	one := r.Counter("energy_total", "h", "function", "MatMul")
	two := r.Counter("outcomes_total", "h", "function", "MatMul", "result", "ok")
	r.Counter("outcomes_total", "h", "function", "MatMul\x00ok", "result", "") // a key that must not collide
	h := r.Histogram("lat_seconds", "h", []float64{1, 2}, "function", "MatMul")
	if r.Counter("energy_total", "h", "function", "MatMul") != one ||
		r.Counter("outcomes_total", "h", "function", "MatMul", "result", "ok") != two ||
		r.Histogram("lat_seconds", "h", []float64{1, 2}, "function", "MatMul").child != h.child {
		t.Fatal("a lookup of an existing series returned a different one")
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("energy_total", "h", "function", "MatMul").Inc()
		r.Counter("outcomes_total", "h", "function", "MatMul", "result", "ok").Inc()
	})
	if allocs != 0 {
		t.Fatalf("looking up existing series allocates %v times per run, want 0", allocs)
	}
	if one.Value() != 101 || two.Value() != 101 {
		t.Fatalf("counters read %v and %v after 101 increments", one.Value(), two.Value())
	}
}

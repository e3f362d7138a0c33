package tsdb

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"microfaas/internal/telemetry"
)

// shippedRules loads the repository's example SLO rule file.
func shippedRules(t *testing.T) []Rule {
	t.Helper()
	rules, err := LoadRules(filepath.Join("..", "..", "examples", "slo", "rules.json"))
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// scrapeBySnapshot is Scrape as it stood before series were interned:
// every sample of every source is materialised by Registry.Snapshot and
// found by metric name and label-set key, every time.
func scrapeBySnapshot(s *Store, now time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var interval time.Duration
	if s.scrapes > 0 {
		if now <= s.lastAt {
			return
		}
		interval = now - s.lastAt
	}
	for _, src := range s.sources {
		extra := ""
		if src.shard != "" {
			extra = "shard"
		}
		for _, smp := range src.reg.Snapshot(extra, src.shard) {
			s.seriesLocked(smp.Name, smp.Labels).push(now, smp.Value)
		}
	}
	s.arrival.update(s, now, interval)
	s.slo.eval(s, now)
	s.lastAt = now
	s.scrapes++
}

// growingCluster is a set of registries that random steps mutate: values
// move, and families, children, histograms and func families appear.
type growingCluster struct {
	rng  *rand.Rand
	regs []*telemetry.Registry
	fns  []string
	seq  int
}

var latencyBuckets = telemetry.LogBuckets(1e-3, 60, 12)

// step applies a few random mutations to every registry.
func (g *growingCluster) step() {
	for _, reg := range g.regs {
		for i := 0; i < 6; i++ {
			fn := g.fns[g.rng.Intn(len(g.fns))]
			switch g.rng.Intn(7) {
			case 0:
				reg.Counter(MetricSubmittedByFunction, "Submitted.", "function", fn).Add(float64(1 + g.rng.Intn(5)))
			case 1:
				result := "ok"
				if g.rng.Intn(4) == 0 {
					result = "error"
				}
				reg.Counter(DefaultErrorMetric, "Outcomes.", "function", fn, "result", result).Inc()
			case 2:
				reg.Histogram(DefaultLatencyMetric, "Latency.", latencyBuckets, "function", fn).Observe(g.rng.ExpFloat64() * 3)
			case 3:
				reg.Counter(DefaultEnergyMetric, "Joules.", "function", fn).Add(g.rng.Float64() * 20)
			case 4:
				// A family nothing has seen yet, as likely to sort before
				// the existing ones as after.
				g.seq++
				name := fmt.Sprintf("%c_grown_%d", 'a'+rune(g.rng.Intn(26)), g.seq)
				if g.rng.Intn(2) == 0 {
					reg.Gauge(name, "", "worker", fn).Set(g.rng.Float64())
				} else {
					v := g.rng.Float64()
					reg.GaugeFunc(name, "", func() float64 { return v })
				}
			case 5:
				reg.Gauge("microfaas_queue_depth", "Depth.").Set(float64(g.rng.Intn(9)))
			case 6:
				if len(g.fns) < 12 {
					g.fns = append(g.fns, fmt.Sprintf("fn-%02d", len(g.fns)))
				}
			}
		}
	}
}

// TestInternedScrapeMatchesSnapshotIngest drives random registry growth
// between scrapes into two stores over the same sources — one scraping
// through interned ordinals, one through scrapeBySnapshot — and holds
// them to identical exports, metric order, SLO state and forecasts after
// every scrape. Two sources carry no shard label, so their equal label
// sets merge into shared series; one source joins after the first scrape.
func TestInternedScrapeMatchesSnapshotIngest(t *testing.T) {
	rules := shippedRules(t)
	// Default rings (which only grow here), rings that grow to an odd bound
	// and then evict, and rings too small for the SLO windows, which then
	// fall back to the downsample tiers — each on its own seed.
	for i, cfg := range []Config{{}, {RawCapacity: 100, TierCapacity: 3}, {RawCapacity: 5}} {
		seed := int64(i + 1)
		g := &growingCluster{rng: rand.New(rand.NewSource(seed)), fns: []string{"fn-00", "fn-01"}}
		got, want := New(cfg), New(cfg)
		add := func(label string) {
			reg := telemetry.NewRegistry()
			g.regs = append(g.regs, reg)
			got.AddSource(label, reg)
			want.AddSource(label, reg)
		}
		for _, label := range []string{"shard-00", "", "shard-01", ""} {
			add(label)
		}
		for _, s := range []*Store{got, want} {
			if err := s.SetRules(rules); err != nil {
				t.Fatal(err)
			}
		}
		export := func(s *Store, window time.Duration) string {
			var b strings.Builder
			if err := s.WriteNDJSON(&b, "", nil, window); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
		const interval = 700 * time.Millisecond
		for i := 1; i <= 130; i++ {
			g.step()
			if i == 2 {
				add("shard-late")
			}
			now := time.Duration(i) * interval
			got.Scrape(now)
			scrapeBySnapshot(want, now)
			where := fmt.Sprintf("config %+v seed %d scrape %d", cfg, seed, i)
			// This scrape's points now, everything retained at the end.
			if a, b := export(got, time.Nanosecond), export(want, time.Nanosecond); a != b {
				t.Fatalf("%s: newest points differ:\n%s\nvs\n%s", where, a, b)
			}
			if a, b := got.MetricNames(), want.MetricNames(); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: metric order %v vs %v", where, a, b)
			}
			if a, b := got.SLOStatus(), want.SLOStatus(); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: SLO status %+v vs %+v", where, a, b)
			}
			if a, b := got.Forecasts(), want.Forecasts(); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: forecasts %+v vs %+v", where, a, b)
			}
		}
		if a, b := export(got, 0), export(want, 0); a != b {
			t.Fatalf("config %+v seed %d: full export differs", cfg, seed)
		}
		if a, b := got.AlertHistory(), want.AlertHistory(); !reflect.DeepEqual(a, b) {
			t.Fatalf("config %+v seed %d: alert history %+v vs %+v", cfg, seed, a, b)
		}
		for _, q := range []Query{
			{Metric: DefaultErrorMetric, Op: OpRate, Window: time.Hour},
			{Metric: DefaultLatencyMetric, Op: OpQuantile, Q: 0.9, Window: time.Hour},
		} {
			a, errA := got.Query(q)
			b, errB := want.Query(q)
			if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
				t.Fatalf("config %+v seed %d: query %+v: %+v (%v) vs %+v (%v)", cfg, seed, q, a, errA, b, errB)
			}
		}
	}
}

// TestPointRingGrowsInChunks checks a raw ring against a plain slice of
// everything pushed: it starts at no more than rawChunk points, never
// holds more than its bound, and retains exactly the newest points.
func TestPointRingGrowsInChunks(t *testing.T) {
	for _, bound := range []int{1, 5, rawChunk, 100, 4 * rawChunk} {
		r := newPointRing(bound)
		if cap(r.buf) > rawChunk || cap(r.buf) > bound {
			t.Fatalf("bound %d: first allocation holds %d points", bound, cap(r.buf))
		}
		for n := 1; n <= 3*bound+2; n++ {
			r.push(Point{At: time.Duration(n), Value: float64(n)})
			if cap(r.buf) > bound {
				t.Fatalf("bound %d: buffer grew to %d points", bound, cap(r.buf))
			}
			kept := n
			if kept > bound {
				kept = bound
			}
			if r.len() != kept || r.newest().Value != float64(n) || r.at(0).Value != float64(n-kept+1) {
				t.Fatalf("bound %d after %d pushes: %d retained, oldest %v, newest %v",
					bound, n, r.len(), r.at(0), r.newest())
			}
			// covers: everything is retained until the first eviction.
			if got, want := r.covers(0), n <= bound; got != want {
				t.Fatalf("bound %d after %d pushes: covers(0) = %v", bound, n, got)
			}
		}
	}
}

// TestScrapeSteadyStateAllocs pins the cost of a scrape that meets no
// new series on a warmed store (rings and tiers full, so nothing grows):
// the walk, the per-ordinal lookup, the ring pushes, the arrival tracker
// and a rule evaluation that flips no alert allocate nothing.
func TestScrapeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, tc := range []struct {
		name  string
		rules []Rule
	}{
		{"no rules", nil},
		{"shipped rules", shippedRules(t)},
	} {
		store := New(Config{RawCapacity: 8, TierCapacity: 2})
		if err := store.SetRules(tc.rules); err != nil {
			t.Fatal(err)
		}
		var counters []*telemetry.Counter
		var hists []*telemetry.Histogram
		for s := 0; s < 2; s++ {
			reg := telemetry.NewRegistry()
			for f := 0; f < 4; f++ {
				fn := fmt.Sprintf("fn-%02d", f)
				counters = append(counters,
					reg.Counter(MetricSubmittedByFunction, "Submitted.", "function", fn),
					reg.Counter(DefaultErrorMetric, "Outcomes.", "function", fn, "result", "ok"),
					reg.Counter(DefaultEnergyMetric, "Joules.", "function", fn))
				reg.Counter(DefaultErrorMetric, "Outcomes.", "function", fn, "result", "error")
				hists = append(hists, reg.Histogram(DefaultLatencyMetric, "Latency.", latencyBuckets, "function", fn))
			}
			reg.GaugeFunc("microfaas_cluster_power_watts", "Draw.", func() float64 { return 19.6 })
			store.AddSource(fmt.Sprintf("shard-%02d", s), reg)
		}
		now := time.Duration(0)
		tick := func() {
			for _, c := range counters {
				c.Add(2)
			}
			for _, h := range hists {
				h.Observe(0.5)
			}
			now += time.Second
			store.Scrape(now)
		}
		for i := 0; i < 200; i++ { // past both tiers' capacity: 2 × 1m
			tick()
		}
		if got := testing.AllocsPerRun(100, tick); got != 0 {
			t.Errorf("%s: %v allocations per steady-state scrape, want 0", tc.name, got)
		}
		if len(store.ActiveAlerts()) != 0 {
			t.Errorf("%s: an alert fired; the scenario is meant to stay quiet", tc.name)
		}
	}
}

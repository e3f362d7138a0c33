package tsdb

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

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
	interval, ok := s.tickLocked(now)
	if !ok {
		return
	}
	for _, src := range s.sources {
		extra := ""
		if src.shard != "" {
			extra = "shard"
		}
		for _, smp := range src.reg.Snapshot(extra, src.shard) {
			s.seriesLocked(smp.Name, smp.Labels).push(smp.Value)
		}
	}
	s.arrival.update(s, now, interval)
	s.slo.eval(s, now)
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

// warmKeep is the sample capacity of warmedStore's series.
const warmKeep = 8

// warmedStore returns a store over two registries, scraped 200 times
// while every counter and histogram moved, so runs and tiers are at their
// bounds and nothing is left to grow. tick moves them all again and
// scrapes; idle scrapes alone.
func warmedStore(t *testing.T, rules []Rule) (store *Store, tick, idle func()) {
	store = New(Config{RawCapacity: warmKeep, TierCapacity: 2})
	if err := store.SetRules(rules); err != nil {
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
	idle = func() {
		now += time.Second
		store.Scrape(now)
	}
	tick = func() {
		for _, c := range counters {
			c.Add(2)
		}
		for _, h := range hists {
			h.Observe(0.5)
		}
		idle()
	}
	for i := 0; i < 200; i++ { // past both tiers' capacity: 2 × 1m
		tick()
	}
	return store, tick, idle
}

// withAndWithoutRules runs f against a store with no SLO rules and one
// with the shipped rule file.
func withAndWithoutRules(t *testing.T, f func(t *testing.T, rules []Rule)) {
	t.Run("no rules", func(t *testing.T) { f(t, nil) })
	t.Run("shipped rules", func(t *testing.T) { f(t, shippedRules(t)) })
}

// TestScrapeSteadyStateAllocs pins the cost of a scrape that meets no
// new series on a warmed store: the walk, the per-ordinal lookup, a run
// closed and another opened per moving series, the arrival tracker and a
// rule evaluation that flips no alert allocate nothing.
func TestScrapeSteadyStateAllocs(t *testing.T) {
	withAndWithoutRules(t, func(t *testing.T, rules []Rule) {
		store, tick, _ := warmedStore(t, rules)
		if got := allocsPerRun(100, tick); got != 0 {
			t.Errorf("%v allocations per steady-state scrape, want 0", got)
		}
		if len(store.ActiveAlerts()) != 0 {
			t.Error("an alert fired; the scenario is meant to stay quiet")
		}
	})
}

// TestScrapeUnchangedWritesNothing scrapes the warmed store over
// registries nobody touches any more: every scraped series extends its
// open run — none is closed, so none is opened — until that one run is
// all it retains, and nothing allocates. (The arrival tracker's own
// series do move: the rates fall to zero and the EWMA decays.)
func TestScrapeUnchangedWritesNothing(t *testing.T) {
	withAndWithoutRules(t, func(t *testing.T, rules []Rule) {
		store, _, idle := warmedStore(t, rules)
		scraped := func(visit func(name string, sr *series)) {
		names:
			for _, name := range store.names {
				for _, derived := range arrivalMetrics {
					if name == derived {
						continue names
					}
				}
				for _, sr := range store.metrics[name].order {
					visit(name, sr)
				}
			}
		}
		for i := 0; i < warmKeep; i++ {
			ends := map[*series]int64{}
			scraped(func(_ string, sr *series) { ends[sr] = sr.open.first + sr.open.n })
			idle()
			scraped(func(name string, sr *series) {
				if end := sr.open.first + sr.open.n; end != ends[sr]+1 {
					t.Fatalf("idle scrape %d: %s %v: open run ends at scrape %d, was %d: a run was opened",
						i, name, sr.labels, end, ends[sr])
				}
			})
		}
		scraped(func(name string, sr *series) {
			if sr.runs() != 1 || sr.open.n != warmKeep {
				t.Fatalf("%s %v: %d runs, the open one of %d samples; want one run of %d",
					name, sr.labels, sr.runs(), sr.open.n, warmKeep)
			}
		})
		if got := allocsPerRun(100, idle); got != 0 {
			t.Errorf("%v allocations per scrape of unchanged registries, want 0", got)
		}
	})
}

// TestConstantSeriesMemoryIsFlat scrapes one gauge that never moves. While
// its samples fit the series' capacity it is one inline run with nothing
// behind it — no run ring, no tier bucket — after 10 scrapes and after
// 10,000, and the scrapes in between allocate nothing. At the default
// capacity the 10,000 outlast it: the run is trimmed to the newest 1,024
// samples, still inline, and the tiers hold what was let go, up to their
// own bound.
func TestConstantSeriesMemoryIsFlat(t *testing.T) {
	held := func(sr *series) int {
		return cap(sr.closed.buf)*int(unsafe.Sizeof(run{})) + (cap(sr.t1.buf)+cap(sr.t2.buf))*int(unsafe.Sizeof(Bucket{}))
	}
	for _, capacity := range []int{10000, DefaultRawCapacity} {
		store := New(Config{RawCapacity: capacity})
		reg := telemetry.NewRegistry()
		reg.Gauge("level", "Constant.").Set(0.1)
		store.AddSource("", reg)
		now := time.Duration(0)
		scrape := func() {
			now += time.Second
			store.Scrape(now)
		}
		for i := 0; i < 10; i++ {
			scrape()
		}
		sr := store.metrics["level"].order[0]
		if got := held(sr); got != 0 {
			t.Fatalf("capacity %d: %d bytes behind the series after 10 scrapes, want 0", capacity, got)
		}
		allocs := allocsPerRun(9990-1, scrape) // AllocsPerRun warms up with one more
		if sr.runs() != 1 || sr.open.n != int64(capacity) || cap(sr.closed.buf) != 0 {
			t.Fatalf("capacity %d: %d runs, the open one of %d samples, a run ring of %d; want one inline run of %d",
				capacity, sr.runs(), sr.open.n, cap(sr.closed.buf), capacity)
		}
		if capacity == 10000 {
			if got := held(sr); got != 0 || allocs != 0 {
				t.Fatalf("%d bytes behind the series after 10,000 scrapes and %v allocations per scrape, want 0 and 0", got, allocs)
			}
		} else if sr.t1.len() != DefaultTierCapacity || sr.t2.len() > DefaultTierCapacity {
			t.Fatalf("tiers hold %d and %d buckets, bound %d", sr.t1.len(), sr.t2.len(), DefaultTierCapacity)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun, except that under the race
// detector — which allocates on its own account — it only runs f, as
// many times (the warm-up call included).
func allocsPerRun(runs int, f func()) float64 {
	if raceEnabled {
		for i := 0; i <= runs; i++ {
			f()
		}
		return 0
	}
	return testing.AllocsPerRun(runs, f)
}

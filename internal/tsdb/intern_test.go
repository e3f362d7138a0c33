package tsdb

import (
	"fmt"
	"io"
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
// found by metric name and label-set key, every time. It applies the
// worker rule on its own terms: a source's samples with a worker label
// are grouped by their label set without it, and once the source's
// samples are all in, each group's sum — added up in snapshot order from
// zero — is pushed, groups in the order this snapshot first met them. A
// sample whose worker is in asked is also pushed under its own label set
// where the snapshot meets it. Sources are summed apart: two unlabelled
// sources with the same family push one sum each into the series their
// label sets share, as two same-key plain samples do.
func scrapeBySnapshot(s *Store, now time.Duration, asked map[string]bool) {
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
		var groups []*series
		sums := map[*series]float64{}
		for _, smp := range src.reg.Snapshot(extra, src.shard) {
			w, ok := smp.Labels["worker"]
			if !ok {
				s.seriesLocked(smp.Name, smp.Labels).push(smp.Value)
				continue
			}
			var rest map[string]string
			for k, v := range smp.Labels {
				if k == "worker" {
					continue
				}
				if rest == nil {
					rest = map[string]string{}
				}
				rest[k] = v
			}
			group := s.seriesLocked(smp.Name, rest)
			if _, seen := sums[group]; !seen {
				groups = append(groups, group)
			}
			sums[group] += smp.Value
			if asked[w] {
				s.seriesLocked(smp.Name, smp.Labels).push(smp.Value)
			}
		}
		for _, group := range groups {
			group.push(sums[group])
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

// step applies a few random mutations to every registry. The function
// names double as worker names, so a worker-labelled family's children
// come and go with them; the two fixed worker families exist in every
// registry, so unlabelled sources share their sums' series.
func (g *growingCluster) step() {
	for _, reg := range g.regs {
		for i := 0; i < 6; i++ {
			fn := g.fns[g.rng.Intn(len(g.fns))]
			switch g.rng.Intn(9) {
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
					reg.Gauge(name, "", "worker", fn).Set(float64(g.rng.Intn(5)))
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
			case 7:
				reg.Gauge("microfaas_worker_busy", "Busy.", "worker", fn).Set(float64(g.rng.Intn(2)))
			case 8:
				result := "ok"
				if g.rng.Intn(3) == 0 {
					result = "error"
				}
				reg.Counter("microfaas_attempts_total", "Attempts.", "worker", fn, "result", result).Inc()
			}
		}
	}
}

// ingestOracle holds a store that scrapes through interned ordinals
// (got) to one that scrapes through scrapeBySnapshot (want), over the
// same growing registries. Asks go to got through its query surface; the
// oracle models them on its own, from the registries' snapshots.
type ingestOracle struct {
	t         testing.TB
	g         *growingCluster
	got, want *Store
	asked     map[string]bool // the workers want records one by one
	scrapes   int
	now       time.Duration
	where     string
}

// newIngestOracle builds the pair of stores over the four sources the
// property test starts with: two carry no shard label, so their equal
// label sets merge into shared series.
func newIngestOracle(t testing.TB, cfg Config, seed int64, rules []Rule) *ingestOracle {
	o := &ingestOracle{
		t:     t,
		g:     &growingCluster{rng: rand.New(rand.NewSource(seed)), fns: []string{"fn-00", "fn-01"}},
		got:   New(cfg),
		want:  New(cfg),
		asked: map[string]bool{},
		where: fmt.Sprintf("config %+v seed %d", cfg, seed),
	}
	for _, label := range []string{"shard-00", "", "shard-01", ""} {
		o.add(label)
	}
	for _, s := range []*Store{o.got, o.want} {
		if err := s.SetRules(rules); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// add registers one more registry with both stores.
func (o *ingestOracle) add(label string) {
	reg := telemetry.NewRegistry()
	o.g.regs = append(o.g.regs, reg)
	o.got.AddSource(label, reg)
	o.want.AddSource(label, reg)
}

// export renders s's points newer than window (all of them at 0).
func (o *ingestOracle) export(s *Store, window time.Duration) string {
	var b strings.Builder
	if err := s.WriteNDJSON(&b, "", nil, window); err != nil {
		o.t.Fatal(err)
	}
	return b.String()
}

// ask names worker w to got, through a query or an export in turn, and
// records it for want if a registry has a series labelled worker=w. The
// ask itself adds no series.
func (o *ingestOracle) ask(w string) {
	series := o.got.SeriesCount()
	match := map[string]string{"worker": w}
	if len(o.asked)%2 == 0 {
		if _, err := o.got.Query(Query{Metric: "microfaas_worker_busy", Match: match}); err != nil {
			o.t.Fatal(err)
		}
	} else if err := o.got.WriteNDJSON(io.Discard, "", match, 0); err != nil {
		o.t.Fatal(err)
	}
	for _, reg := range o.g.regs {
		for _, smp := range reg.Snapshot("", "") {
			if v, ok := smp.Labels["worker"]; ok && v == w {
				o.asked[w] = true
			}
		}
	}
	if got := o.got.SeriesCount(); got != series {
		o.t.Fatalf("%s after %d scrapes: asking for %q took the store from %d series to %d", o.where, o.scrapes, w, series, got)
	}
	if got, want := len(o.got.asked), len(o.asked); got != want {
		o.t.Fatalf("%s after %d scrapes: asking for %q: the store has asked for %d workers, want %d", o.where, o.scrapes, w, got, want)
	}
}

// scrape scrapes both stores at the next instant and compares this
// scrape's points, metric order, series count, SLO state and forecasts.
func (o *ingestOracle) scrape(interval time.Duration) {
	o.scrapes++
	o.now += interval
	o.got.Scrape(o.now)
	scrapeBySnapshot(o.want, o.now, o.asked)
	where := fmt.Sprintf("%s scrape %d", o.where, o.scrapes)
	if a, b := o.export(o.got, time.Nanosecond), o.export(o.want, time.Nanosecond); a != b {
		o.t.Fatalf("%s: newest points differ:\n%s\nvs\n%s", where, a, b)
	}
	if a, b := o.got.MetricNames(), o.want.MetricNames(); !reflect.DeepEqual(a, b) {
		o.t.Fatalf("%s: metric order %v vs %v", where, a, b)
	}
	if a, b := o.got.SeriesCount(), o.want.SeriesCount(); a != b {
		o.t.Fatalf("%s: %d series vs %d", where, a, b)
	}
	if a, b := o.got.SLOStatus(), o.want.SLOStatus(); !reflect.DeepEqual(a, b) {
		o.t.Fatalf("%s: SLO status %+v vs %+v", where, a, b)
	}
	if a, b := o.got.Forecasts(), o.want.Forecasts(); !reflect.DeepEqual(a, b) {
		o.t.Fatalf("%s: forecasts %+v vs %+v", where, a, b)
	}
}

// finish compares everything retained, the alert history and two
// whole-history queries.
func (o *ingestOracle) finish() {
	if a, b := o.export(o.got, 0), o.export(o.want, 0); a != b {
		o.t.Fatalf("%s: full export differs", o.where)
	}
	if a, b := o.got.AlertHistory(), o.want.AlertHistory(); !reflect.DeepEqual(a, b) {
		o.t.Fatalf("%s: alert history %+v vs %+v", o.where, a, b)
	}
	for _, q := range []Query{
		{Metric: DefaultErrorMetric, Op: OpRate, Window: time.Hour},
		{Metric: DefaultLatencyMetric, Op: OpQuantile, Q: 0.9, Window: time.Hour},
	} {
		a, errA := o.got.Query(q)
		b, errB := o.want.Query(q)
		if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
			o.t.Fatalf("%s: query %+v: %+v (%v) vs %+v (%v)", o.where, q, a, errA, b, errB)
		}
	}
}

// TestInternedScrapeMatchesSnapshotIngest drives random registry growth
// between scrapes into the oracle's two stores and holds them to
// identical exports, metric order, SLO state and forecasts after every
// scrape. One source joins after the first scrape; a worker is asked for
// once its series exist, one before it has any, and one no registry has.
func TestInternedScrapeMatchesSnapshotIngest(t *testing.T) {
	rules := shippedRules(t)
	// Default rings (which only grow here), rings that grow to an odd bound
	// and then evict, and rings too small for the SLO windows, which then
	// fall back to the downsample tiers — each on its own seed.
	for i, cfg := range []Config{{}, {RawCapacity: 100, TierCapacity: 3}, {RawCapacity: 5}} {
		o := newIngestOracle(t, cfg, int64(i+1), rules)
		for i := 1; i <= 130; i++ {
			o.g.step()
			switch i {
			case 2:
				o.add("shard-late")
			case 20:
				o.ask("fn-01")
			case 40:
				o.ask("nope")
			case 60:
				o.ask("fn-09") // may not exist yet: then it is asked for again
			case 90:
				o.ask("fn-09")
			}
			o.scrape(700 * time.Millisecond)
		}
		o.finish()
	}
}

// FuzzScrapeAsks interleaves registry growth, scrapes, asks — for
// workers that exist, do not yet, or never will — and late sources, and
// holds the interned scrape to scrapeBySnapshot after every scrape.
func FuzzScrapeAsks(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 1, 6, 1, 0, 1, 10, 1})
	f.Add([]byte{1, 7, 2, 6, 10, 0, 1, 0, 0, 1, 3, 1, 0, 0, 14, 1})
	f.Add([]byte{2, 3, 0, 1, 46, 1, 0, 0, 0, 1, 3, 0, 1, 50, 0, 1, 0, 1})
	rules, err := LoadRules(filepath.Join("..", "..", "examples", "slo", "rules.json"))
	if err != nil {
		f.Fatal(err)
	}
	configs := []Config{{}, {RawCapacity: 6, TierCapacity: 2}, {RawCapacity: 3}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		o := newIngestOracle(t, configs[int(data[0])%len(configs)], int64(data[1]), rules)
		if len(data) > 400 {
			data = data[:400]
		}
		for _, b := range data[2:] {
			switch b % 4 {
			case 0:
				o.g.step()
			case 1:
				o.scrape(time.Duration(1+b/4%3) * 500 * time.Millisecond)
			case 2:
				// fn-00 … fn-11, which the registries grow into, and two workers
				// they never have.
				o.ask(fmt.Sprintf("fn-%02d", b/4%14))
			default:
				if len(o.g.regs) < 7 {
					o.add([]string{"", "shard-late"}[b/4%2])
				}
			}
		}
		o.finish()
	})
}

// TestAskUnknownWorkerIsFlat queries for a worker no source has, over a
// store scraping one shard of 16 boards and one of 1,024, five worker
// series a board: the ask is a lookup per rollup, not a scan of the
// boards, so the query allocates as often at both sizes.
func TestAskUnknownWorkerIsFlat(t *testing.T) {
	allocs := func(boards int) float64 {
		reg := telemetry.NewRegistry()
		for b := 0; b < boards; b++ {
			w := fmt.Sprintf("sbc-%04d", b)
			reg.Gauge("microfaas_worker_busy", "Busy.", "worker", w).Set(1)
			reg.Gauge("microfaas_queue_depth", "Depth.", "worker", w)
			for _, result := range []string{"ok", "error", "timeout"} {
				reg.Counter("microfaas_attempts_total", "Attempts.", "worker", w, "result", result).Inc()
			}
		}
		store := New(Config{})
		store.AddSource("shard-00", reg)
		store.Scrape(time.Second)
		q := Query{Metric: "microfaas_worker_busy", Match: map[string]string{"worker": "nope"}}
		return allocsPerRun(50, func() {
			if _, err := store.Query(q); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(16), allocs(1024); small != large {
		t.Fatalf("asking for an unknown worker allocates %v times at 16 boards and %v at 1,024", small, large)
	}
}

// warmKeep is the sample capacity of warmedStore's series.
const warmKeep = 8

// warmedStore returns a store over two registries, scraped 200 times
// while every counter and histogram moved, so runs and tiers are at their
// bounds and nothing is left to grow. Each registry has four workers'
// counters and gauges, summed per shard, one of whose workers has been
// asked for. tick moves them all again and scrapes; idle scrapes alone.
func warmedStore(t *testing.T, rules []Rule) (store *Store, tick, idle func()) {
	store = New(Config{RawCapacity: warmKeep, TierCapacity: 2})
	if err := store.SetRules(rules); err != nil {
		t.Fatal(err)
	}
	var counters []*telemetry.Counter
	var hists []*telemetry.Histogram
	var busy []*telemetry.Gauge
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
		for w := 0; w < 4; w++ {
			worker := fmt.Sprintf("sbc-%d%d", s, w)
			counters = append(counters, reg.Counter("microfaas_attempts_total", "Attempts.", "worker", worker, "result", "ok"))
			busy = append(busy, reg.Gauge("microfaas_worker_busy", "Busy.", "worker", worker))
		}
		reg.GaugeFunc("microfaas_cluster_power_watts", "Draw.", func() float64 { return 19.6 })
		store.AddSource(fmt.Sprintf("shard-%02d", s), reg)
	}
	if _, err := store.Query(Query{Metric: "microfaas_worker_busy", Match: map[string]string{"worker": "sbc-12"}}); err != nil {
		t.Fatal(err)
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
		for _, g := range busy {
			g.Set(1 - g.Value())
		}
		idle()
	}
	for i := 0; i < 200; i++ { // past both tiers' capacity: 2 × 1m
		tick()
	}
	return store, tick, idle
}

// withAndWithoutRules runs f against a store with no SLO rules, one with
// the shipped rule file (all three kinds, the benchmark's latency rule
// among them), and one that adds function-scoped error-ratio and energy
// rules to it.
func withAndWithoutRules(t *testing.T, f func(t *testing.T, rules []Rule)) {
	t.Run("no rules", func(t *testing.T) { f(t, nil) })
	t.Run("shipped rules", func(t *testing.T) { f(t, shippedRules(t)) })
	t.Run("scoped rules", func(t *testing.T) {
		rules := shippedRules(t)
		win := rules[0].Windows
		f(t, append(rules,
			Rule{Name: "fn-01-errors", Kind: KindErrorRatio, Function: "fn-01", Target: 0.99, Windows: win},
			Rule{Name: "fn-02-energy", Kind: KindEnergyBudget, Function: "fn-02", BudgetJ: 8, Windows: win}))
	})
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

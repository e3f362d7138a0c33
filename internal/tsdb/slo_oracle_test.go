package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"microfaas/internal/telemetry"
)

// The reference evaluator: every burn a full scan of its metric's
// series, each matched by its labels and read by a clock search and a
// run search of its own — the engine as it stood before rules bound
// their series and kept run cursors.

// scanBurn is burnLocked by full scan. Caller holds s.mu.
func scanBurn(s *Store, r Rule, now time.Duration, window Duration) float64 {
	from := now - time.Duration(window)
	if from < 0 {
		from = 0
	}
	var match map[string]string
	if r.Function != "" {
		match = map[string]string{"function": r.Function}
	}
	switch r.Kind {
	case KindErrorRatio:
		matchBad := map[string]string{"result": "error"}
		for k, v := range match {
			matchBad[k] = v
		}
		bad := sumIncreaseLocked(s, r.metric(), from, matchBad)
		total := sumIncreaseLocked(s, r.metric(), from, match)
		if total <= 0 {
			return 0
		}
		return (bad / total) / (1 - r.Target)
	case KindEnergyBudget:
		joules := sumIncreaseLocked(s, r.metric(), from, match)
		completions := sumIncreaseLocked(s, DefaultErrorMetric, from, match)
		if completions <= 0 {
			return 0
		}
		return (joules / completions) / r.BudgetJ
	default: // KindLatency
		good, total := latencySplitLocked(s, r.metric()+"_bucket", r.ThresholdS, from, match)
		if total <= 0 {
			return 0
		}
		bad := total - good
		if bad < 0 {
			bad = 0
		}
		return (bad / total) / (1 - r.Target)
	}
}

// sumIncreaseLocked sums the window increase of every series of metric
// matching match. Caller holds s.mu.
func sumIncreaseLocked(s *Store, metric string, from time.Duration, match map[string]string) float64 {
	ms, ok := s.metrics[metric]
	if !ok {
		return 0
	}
	total := 0.0
	for _, sr := range ms.order {
		if matchesAll(sr.labels, match) {
			total += sr.increase(from)
		}
	}
	return total
}

// latencySplitLocked splits a latency histogram's window growth into
// (good, total): good is the growth at the smallest bucket bound ≥
// thresholdS, total the growth of the largest bound, both merged across
// matching series. Caller holds s.mu.
func latencySplitLocked(s *Store, bucketMetric string, thresholdS float64, from time.Duration, match map[string]string) (good, total float64) {
	ms, ok := s.metrics[bucketMetric]
	if !ok {
		return 0, 0
	}
	goodLE, totalLE, matched := math.Inf(1), math.Inf(-1), false
	for _, sr := range ms.order {
		if !sr.hasLE || !matchesAllExceptLE(sr.labels, match) {
			continue
		}
		matched = true
		if sr.le >= thresholdS && sr.le < goodLE {
			goodLE = sr.le
		}
		if sr.le > totalLE {
			totalLE = sr.le
		}
	}
	if !matched {
		return 0, 0
	}
	for _, sr := range ms.order {
		if !sr.hasLE || (sr.le != goodLE && sr.le != totalLE) || !matchesAllExceptLE(sr.labels, match) {
			continue
		}
		inc := sr.increase(from)
		if sr.le == goodLE {
			good += inc
		}
		if sr.le == totalLE {
			total += inc
		}
	}
	return good, total
}

// scanEval is sloEngine.eval with every burn from scanBurn: the pages are
// judged, and their transitions logged, by the engine's own evalPage.
func scanEval(e *sloEngine, s *Store, now time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range e.rules {
		rs := &e.rules[i]
		w := rs.rule.windows()
		rs.fast.shortBurn = scanBurn(s, rs.rule, now, w.FastShort)
		rs.fast.longBurn = scanBurn(s, rs.rule, now, w.FastLong)
		rs.slow.shortBurn = scanBurn(s, rs.rule, now, w.SlowShort)
		rs.slow.longBurn = scanBurn(s, rs.rule, now, w.SlowLong)
		e.evalPage(s, now, rs, &rs.fast, "fast", w.FastShort, w.FastLong, w.FastBurn)
		e.evalPage(s, now, rs, &rs.slow, "slow", w.SlowShort, w.SlowLong, w.SlowBurn)
	}
}

// customLatencyMetric is a latency histogram whose buckets carry a
// function label, so a latency rule may be scoped over it.
const customLatencyMetric = "microfaas_test_latency_seconds"

// sloBounds are the le bounds the gauge-written bucket series draw from:
// the shipped latency rule's 4.7 s threshold falls between two, +Inf may
// arrive after the finite ones, and a NaN bound is never good or total.
var sloBounds = []string{"0.5", "1", "2.5", "5", "10", "+Inf", "NaN"}

// sloOracle scrapes one schedule into two stores over the same three
// registries: got evaluates its rules through bound series and run
// cursors, want through scanEval, and the two must agree bit for bit.
// Registry 0 records latency in a real histogram; registries 1 and 2
// write their bucket series as gauges, one bound at a time, and carry no
// shard label, so their equal label sets share series that take two
// samples a scrape. Every counter is a gauge, so it can stall, move, or
// reset to a lower value.
type sloOracle struct {
	t         testing.TB
	regs      [3]*telemetry.Registry
	hist      *telemetry.Histogram
	fns       []string
	got, want *Store
	scan      *sloEngine
	now       time.Duration
	scrapes   int
	where     string
}

func newSLOOracle(t testing.TB, cfg Config, rules []Rule) *sloOracle {
	o := &sloOracle{t: t, got: New(cfg), want: New(cfg), fns: []string{"fn-00"}, where: fmt.Sprintf("config %+v", cfg)}
	for i := range o.regs {
		o.regs[i] = telemetry.NewRegistry()
		for _, s := range []*Store{o.got, o.want} {
			s.AddSource([]string{"shard-00", "", ""}[i], o.regs[i])
		}
	}
	o.hist = o.regs[0].Histogram(DefaultLatencyMetric, "Latency.", []float64{0.5, 1, 2.5, 5, 10})
	o.setRules(rules)
	return o
}

// setRules installs rules on got and a fresh scanning engine for want;
// alert history carries over on both.
func (o *sloOracle) setRules(rules []Rule) {
	if err := o.got.SetRules(rules); err != nil {
		o.t.Fatal(err)
	}
	o.scan = &sloEngine{}
	for _, r := range rules {
		o.scan.rules = append(o.scan.rules, newRuleState(r))
	}
}

// addFunction grows the function set; a function's series appear with
// the first write to one.
func (o *sloOracle) addFunction() {
	if len(o.fns) < 5 {
		o.fns = append(o.fns, fmt.Sprintf("fn-%02d", len(o.fns)))
	}
}

// write moves, stalls or resets one series picked by b and c.
func (o *sloOracle) write(b, c byte) {
	reg := o.regs[int(b)%len(o.regs)]
	fn := o.fns[int(b/3)%len(o.fns)]
	var g *telemetry.Gauge
	switch c % 5 {
	case 0:
		g = reg.Gauge(DefaultErrorMetric, "Outcomes.", "function", fn, "result", "ok")
	case 1:
		g = reg.Gauge(DefaultErrorMetric, "Outcomes.", "function", fn, "result", "error")
	case 2:
		g = reg.Gauge(DefaultEnergyMetric, "Joules.", "function", fn)
	case 3:
		g = reg.Gauge(customLatencyMetric+"_bucket", "Latency.", "function", fn, "le", sloBounds[int(c>>3)%len(sloBounds)])
	default:
		if reg == o.regs[0] {
			o.hist.Observe([]float64{0.2, 0.7, 3, 4.8, 7, 30}[int(c>>3)%6])
			return
		}
		g = reg.Gauge(DefaultLatencyMetric+"_bucket", "Latency.", "le", sloBounds[int(c>>3)%len(sloBounds)])
	}
	switch v := g.Value(); c >> 6 {
	case 0, 1:
		g.Set(v + float64(1+int(b>>5)%4))
	case 2:
		g.Set(v + 0.1) // a step whose repeated sum is not a product
	default:
		g.Set(math.Floor(v / 2)) // a reset, or a stall at zero
	}
}

// scrape scrapes both stores at the next instant and compares every
// page's state and the alert count.
func (o *sloOracle) scrape(interval time.Duration) {
	o.scrapes++
	o.now += interval
	o.got.Scrape(o.now)
	o.want.Scrape(o.now)
	scanEval(o.scan, o.want, o.now)
	o.compare()
}

func samePage(a, b pageState) bool {
	return a.firing == b.firing && a.sinceMs == b.sinceMs &&
		sameFloat(a.shortBurn, b.shortBurn) && sameFloat(a.longBurn, b.longBurn)
}

func (o *sloOracle) compare() {
	where := fmt.Sprintf("%s scrape %d at %v", o.where, o.scrapes, o.now)
	got := o.got.slo.rules
	if len(got) != len(o.scan.rules) {
		o.t.Fatalf("%s: %d rules, want %d", where, len(got), len(o.scan.rules))
	}
	for i := range got {
		a, b := &got[i], &o.scan.rules[i]
		if !samePage(a.fast, b.fast) || !samePage(a.slow, b.slow) {
			o.t.Fatalf("%s: rule %+v: pages fast %+v slow %+v, want fast %+v slow %+v",
				where, a.rule, a.fast, a.slow, b.fast, b.slow)
		}
	}
	if a, b := len(o.got.AlertHistory()), len(o.want.AlertHistory()); a != b {
		o.t.Fatalf("%s: %d alert transitions, want %d", where, a, b)
	}
}

// finish compares the whole alert history.
func (o *sloOracle) finish() {
	if a, b := o.got.AlertHistory(), o.want.AlertHistory(); !reflect.DeepEqual(a, b) {
		o.t.Fatalf("%s: alert history %+v, want %+v", o.where, a, b)
	}
}

// sloRuleFrom decodes one rule from four bytes: kind and scope, windows,
// thresholds. Every rule it returns passes Validate.
func sloRuleFrom(i int, b [4]byte) Rule {
	unit := 500 * time.Millisecond
	fs := unit * time.Duration(1+b[1]%4)
	fl := fs + unit*time.Duration(1+b[1]>>2%6)
	ss := fs + unit*time.Duration(b[2]%4)
	sl := max(fl, ss) + unit*time.Duration(1+b[2]>>2%8)
	burns := []float64{0.5, 1, 1.5, 4}
	r := Rule{
		Name: fmt.Sprintf("rule-%d", i),
		Windows: &Windows{
			FastShort: Duration(fs), FastLong: Duration(fl), FastBurn: burns[b[3]%4],
			SlowShort: Duration(ss), SlowLong: Duration(sl), SlowBurn: burns[b[3]>>2%4],
		},
		Target: []float64{0.5, 0.9, 0.99}[int(b[3]>>4)%3],
	}
	if b[0]&8 != 0 {
		r.Function = fmt.Sprintf("fn-%02d", int(b[0]>>4)%5)
	}
	switch b[0] % 3 {
	case 0:
		r.Kind = KindErrorRatio
	case 1:
		r.Kind, r.BudgetJ = KindEnergyBudget, []float64{0.5, 2, 8}[int(b[3]>>6)%3]
	default:
		r.Kind, r.ThresholdS = KindLatency, []float64{0.3, 1, 2.5, 4.7, 100}[int(b[2]>>5)%5]
		if r.Function != "" || b[0]&64 != 0 {
			r.Metric = customLatencyMetric
		}
	}
	return r
}

// sloRulesFrom decodes one to four rules from the schedule, or picks the
// shipped rule file.
func sloRulesFrom(next func() byte, shipped []Rule) []Rule {
	n := next()
	if n%5 == 4 {
		return shipped
	}
	rules := make([]Rule, 1+int(n)%4)
	for i := range rules {
		rules[i] = sloRuleFrom(i, [4]byte{next(), next(), next(), next()})
	}
	return rules
}

// sloConfigs are the store sizes a schedule runs at: default rings, and
// rings too small for the rules' windows, so burns fall back to the tiers
// and runs are evicted under the cursors.
var sloConfigs = []Config{{}, {RawCapacity: 3, TierCapacity: 2}, {RawCapacity: 6, TierCapacity: 3}, {RawCapacity: 17}}

// runSLOOracle plays a schedule decoded from data: a config and a rule
// set (random, or the shipped one), then ops — series writes, scrapes at
// uneven intervals, a new function (allowed only as the run ages, so the
// later ones are first seen after dozens of scrapes), and SetRules with a
// new rule set.
func runSLOOracle(t testing.TB, data []byte, shipped []Rule) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	o := newSLOOracle(t, sloConfigs[int(next())%len(sloConfigs)], sloRulesFrom(next, shipped))
	for ops := 0; len(data) > 0 && ops < 3000 && o.scrapes < 400; ops++ {
		switch b := next(); b % 8 {
		case 0, 1, 2, 3:
			o.write(next(), next())
		case 4, 5:
			o.scrape(time.Duration(1+b>>3%4) * 250 * time.Millisecond)
		case 6:
			if o.scrapes >= 12*len(o.fns) {
				o.addFunction()
			}
		default:
			if b>>3%4 == 0 {
				o.setRules(sloRulesFrom(next, shipped))
			}
		}
	}
	o.scrape(time.Second)
	o.finish()
}

// FuzzSLOEval holds the bound, cursor-driven SLO evaluation to the full
// scan over arbitrary scrape schedules.
func FuzzSLOEval(f *testing.F) {
	// One error-ratio rule whose windows 6-sample rings still cover, over
	// outcome series that move at every 250 ms scrape: from the seventh on,
	// each scrape evicts whole runs under live cursors.
	evicting := []byte{2, 0, 0, 0, 0, 0}
	for i := 0; i < 12; i++ {
		evicting = append(evicting, 0, 0, 0, 0, 0, 1, 4)
	}
	f.Add(evicting)
	f.Add([]byte{0, 2, 2, 5, 1, 9, 0, 0, 4, 4, 1, 5, 1, 2, 5, 12, 4})
	f.Add([]byte{1, 3, 8, 5, 33, 1, 11, 0, 0, 0, 2, 9, 2, 19, 4, 1, 7, 3, 5, 12, 4, 1, 2, 5, 4, 4, 4, 4, 4, 4, 4, 4})
	f.Add([]byte{2, 0, 26, 7, 44, 200, 0, 1, 1, 131, 4, 0, 196, 4, 4, 7, 0, 0, 0, 0, 0, 4, 4, 4, 4})
	shipped, err := LoadRules(filepath.Join("..", "..", "examples", "slo", "rules.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4000 {
			data = data[:4000]
		}
		runSLOOracle(t, data, shipped)
	})
}

// TestSLOEvalMatchesScan is the property test: seeded random schedules —
// counters that move, stall and reset, histogram buckets written as gauges
// and observed, functions whose series first appear after dozens of
// scrapes, rings small enough that windows fall back to the tiers and
// runs are evicted under live cursors, rule sets replaced mid-run,
// function-scoped rules of every kind — compared with the full scan after
// every scrape.
func TestSLOEvalMatchesScan(t *testing.T) {
	seeds := int64(120)
	if raceEnabled {
		seeds = 20
	}
	shipped := shippedRules(t)
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1500+rng.Intn(1500))
		rng.Read(data)
		runSLOOracle(t, data, shipped)
	}
}

// TestSLOBindsSeriesBornLate scopes a rule of every kind to a function
// whose series first appear after the rules' first twenty evaluations:
// the bindings pick them up on the scrape that meets them, every burn
// from their first sample on is the full scan's, bit for bit, and each
// rule fires on them.
func TestSLOBindsSeriesBornLate(t *testing.T) {
	win := &Windows{
		FastShort: Duration(2 * time.Second), FastLong: Duration(4 * time.Second), FastBurn: 2,
		SlowShort: Duration(4 * time.Second), SlowLong: Duration(8 * time.Second), SlowBurn: 1.5,
	}
	o := newSLOOracle(t, Config{}, []Rule{
		{Name: "late-errors", Kind: KindErrorRatio, Function: "fn-late", Target: 0.9, Windows: win},
		{Name: "late-energy", Kind: KindEnergyBudget, Function: "fn-late", BudgetJ: 1, Windows: win},
		{Name: "late-latency", Kind: KindLatency, Metric: customLatencyMetric, Function: "fn-late",
			ThresholdS: 1, Target: 0.9, Windows: win},
	})
	reg := o.regs[1]
	grow := func(g *telemetry.Gauge, by float64) { g.Set(g.Value() + by) }
	early := reg.Gauge(DefaultErrorMetric, "Outcomes.", "function", "fn-00", "result", "ok")
	for i := 0; i < 20; i++ {
		grow(early, 5)
		o.scrape(time.Second)
	}
	for _, rs := range o.got.slo.rules {
		if n := len(rs.num.series) + len(rs.den.series); n != 0 {
			t.Fatalf("%s bound %d series before its function had any", rs.rule.Name, n)
		}
	}
	ok := reg.Gauge(DefaultErrorMetric, "Outcomes.", "function", "fn-late", "result", "ok")
	bad := reg.Gauge(DefaultErrorMetric, "Outcomes.", "function", "fn-late", "result", "error")
	joules := reg.Gauge(DefaultEnergyMetric, "Joules.", "function", "fn-late")
	under := reg.Gauge(customLatencyMetric+"_bucket", "Latency.", "function", "fn-late", "le", "1")
	all := reg.Gauge(customLatencyMetric+"_bucket", "Latency.", "function", "fn-late", "le", "+Inf")
	for i := 0; i < 12; i++ {
		grow(ok, 5)
		grow(bad, 5)
		grow(joules, 30)
		grow(under, 1)
		grow(all, 10)
		o.scrape(time.Second)
	}
	for _, rs := range o.got.slo.rules {
		if len(rs.num.series) == 0 || !rs.fast.firing || !rs.slow.firing {
			t.Fatalf("%s: %d series bound, fast page firing %v, slow %v; want its function's series and both pages firing",
				rs.rule.Name, len(rs.num.series), rs.fast.firing, rs.slow.firing)
		}
	}
	o.finish()
}

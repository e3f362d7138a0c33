package tsdb

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"microfaas/internal/telemetry"
)

// Rule kinds: what an SLO objective constrains.
const (
	// KindLatency bounds the fraction of invocations slower than
	// ThresholdS: good = latency ≤ threshold, Target is the good
	// fraction (e.g. 0.99 → "99% of invocations under threshold").
	KindLatency = "latency"
	// KindErrorRatio bounds the error fraction: Target is the good
	// (non-error) fraction.
	KindErrorRatio = "error_ratio"
	// KindEnergyBudget bounds metered joules per completed invocation
	// (FaasMeter-style per-function energy budgets): burn is the
	// measured J/function over the window divided by BudgetJ.
	KindEnergyBudget = "energy_budget"
)

// Default metrics per rule kind.
const (
	// DefaultLatencyMetric is the end-to-end latency histogram KindLatency
	// rules read.
	DefaultLatencyMetric = "microfaas_invocation_latency_seconds"
	// DefaultErrorMetric is the per-function outcome counter
	// KindErrorRatio rules read (and KindEnergyBudget's completion
	// denominator).
	DefaultErrorMetric = "microfaas_function_invocations_total"
	// DefaultEnergyMetric is the per-function joule counter
	// KindEnergyBudget rules read.
	DefaultEnergyMetric = "microfaas_function_energy_joules_total"
)

// Duration is a time.Duration that marshals to and from JSON as a Go
// duration string ("5m", "1h30m"); bare numbers are read as seconds.
type Duration time.Duration

// MarshalJSON renders the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "5m"-style strings or numeric seconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("tsdb: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("tsdb: duration must be a string or seconds: %s", b)
	}
	*d = Duration(time.Duration(secs * float64(time.Second)))
	return nil
}

// Windows is one rule's multi-window burn-rate configuration: a fast
// page (short windows, high burn threshold — catches sharp regressions
// in minutes) and a slow page (long windows, low threshold — catches
// slow bleeds). A page fires only when BOTH its windows exceed the
// threshold: the long window proves the burn is sustained, the short
// window makes the alert resolve promptly once the burn stops.
type Windows struct {
	// FastShort and FastLong are the fast page's window pair.
	FastShort Duration `json:"fast_short"`
	FastLong  Duration `json:"fast_long"`
	// FastBurn is the fast page's burn-rate threshold.
	FastBurn float64 `json:"fast_burn"`
	// SlowShort and SlowLong are the slow page's window pair.
	SlowShort Duration `json:"slow_short"`
	SlowLong  Duration `json:"slow_long"`
	// SlowBurn is the slow page's burn-rate threshold.
	SlowBurn float64 `json:"slow_burn"`
}

// DefaultWindows returns the SRE-workbook multi-window pairs: fast
// 5m/1h at burn 14.4 (2% of a 30-day budget in an hour), slow 30m/6h
// at burn 6. Simulation rules override these — a seeded sim's horizon
// is seconds, not days.
func DefaultWindows() Windows {
	return Windows{
		FastShort: Duration(5 * time.Minute), FastLong: Duration(time.Hour), FastBurn: 14.4,
		SlowShort: Duration(30 * time.Minute), SlowLong: Duration(6 * time.Hour), SlowBurn: 6,
	}
}

// Rule is one declarative service-level objective, evaluated as two
// burn-rate pages on every scrape.
type Rule struct {
	// Name identifies the rule in alerts and events.
	Name string `json:"name"`
	// Kind selects the objective: KindLatency, KindErrorRatio, or
	// KindEnergyBudget.
	Kind string `json:"kind"`
	// Metric overrides the kind's default metric (the histogram family
	// for latency, the outcome counter for error ratio, the joule
	// counter for energy budget).
	Metric string `json:"metric,omitempty"`
	// Function scopes the rule to one function's series (adds a
	// function=… matcher; empty = cluster-wide).
	Function string `json:"function,omitempty"`
	// ThresholdS is the latency bound in seconds (KindLatency).
	ThresholdS float64 `json:"threshold_s,omitempty"`
	// Target is the good fraction in (0,1) (KindLatency, KindErrorRatio).
	Target float64 `json:"target,omitempty"`
	// BudgetJ is the joules-per-completion budget (KindEnergyBudget).
	BudgetJ float64 `json:"budget_j,omitempty"`
	// Windows overrides DefaultWindows.
	Windows *Windows `json:"windows,omitempty"`
}

// windows resolves the rule's effective window configuration.
func (r Rule) windows() Windows {
	if r.Windows != nil {
		return *r.Windows
	}
	return DefaultWindows()
}

// metric resolves the rule's effective primary metric.
func (r Rule) metric() string {
	if r.Metric != "" {
		return r.Metric
	}
	switch r.Kind {
	case KindErrorRatio:
		return DefaultErrorMetric
	case KindEnergyBudget:
		return DefaultEnergyMetric
	default:
		return DefaultLatencyMetric
	}
}

// Validate checks the rule's internal consistency: known kind,
// parameter signs, target range, no function scope over a metric the
// platform registers without a function label, and window ordering (short < long in
// each pair, fast windows no longer than slow ones, positive burn
// thresholds). It does not check the metric against a catalogue — see
// ValidateMetric.
func (r Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("tsdb: rule needs a name")
	}
	switch r.Kind {
	case KindLatency:
		if r.ThresholdS <= 0 {
			return fmt.Errorf("tsdb: rule %s: latency threshold_s must be > 0, got %g", r.Name, r.ThresholdS)
		}
		if r.Target <= 0 || r.Target >= 1 {
			return fmt.Errorf("tsdb: rule %s: target must be in (0,1), got %g", r.Name, r.Target)
		}
	case KindErrorRatio:
		if r.Target <= 0 || r.Target >= 1 {
			return fmt.Errorf("tsdb: rule %s: target must be in (0,1), got %g", r.Name, r.Target)
		}
	case KindEnergyBudget:
		if r.BudgetJ <= 0 {
			return fmt.Errorf("tsdb: rule %s: budget_j must be > 0, got %g", r.Name, r.BudgetJ)
		}
	default:
		return fmt.Errorf("tsdb: rule %s: unknown kind %q (want %s, %s, or %s)",
			r.Name, r.Kind, KindLatency, KindErrorRatio, KindEnergyBudget)
	}
	if m := r.metric(); r.Function != "" && (m == DefaultLatencyMetric || m == "microfaas_cluster_energy_joules_total") {
		return fmt.Errorf("tsdb: rule %s: %s carries no function label, so scoped to function %q it would match no series and never fire",
			r.Name, m, r.Function)
	}
	w := r.windows()
	for _, pair := range []struct {
		page        string
		short, long Duration
		burn        float64
	}{
		{"fast", w.FastShort, w.FastLong, w.FastBurn},
		{"slow", w.SlowShort, w.SlowLong, w.SlowBurn},
	} {
		if pair.short <= 0 || pair.long <= 0 {
			return fmt.Errorf("tsdb: rule %s: %s windows must be > 0", r.Name, pair.page)
		}
		if pair.short >= pair.long {
			return fmt.Errorf("tsdb: rule %s: %s short window %s must be shorter than its long window %s",
				r.Name, pair.page, time.Duration(pair.short), time.Duration(pair.long))
		}
		if pair.burn <= 0 {
			return fmt.Errorf("tsdb: rule %s: %s burn threshold must be > 0, got %g", r.Name, pair.page, pair.burn)
		}
	}
	if w.FastLong > w.SlowLong {
		return fmt.Errorf("tsdb: rule %s: fast long window %s exceeds slow long window %s (pages are ordered fast < slow)",
			r.Name, time.Duration(w.FastLong), time.Duration(w.SlowLong))
	}
	return nil
}

// ValidateMetric checks the rule's effective metric against a known
// catalogue (see KnownMetrics); slolint calls it so a typoed metric
// fails CI instead of silently never firing.
func (r Rule) ValidateMetric(known []string) error {
	m := r.metric()
	for _, k := range known {
		if k == m {
			return nil
		}
	}
	return fmt.Errorf("tsdb: rule %s: unknown metric %q", r.Name, m)
}

// KnownMetrics returns the platform's metric catalogue: every family
// the orchestrator, workers, power manager, shard plane, cluster
// meters, gateway, and the store's own synthetic series register. slolint
// validates rule files against it.
func KnownMetrics() []string {
	return []string{
		"microfaas_jobs_submitted_total",
		"microfaas_jobs_pending",
		"microfaas_retries_total",
		"microfaas_attempts_total",
		"microfaas_queue_depth",
		"microfaas_worker_busy",
		"microfaas_breaker_transitions_total",
		"microfaas_function_invocations_total",
		"microfaas_function_submitted_total",
		"microfaas_invocation_latency_seconds",
		"microfaas_worker_boots_total",
		"microfaas_fault_injections_total",
		"microfaas_function_energy_joules_total",
		"microfaas_workers_powered",
		"microfaas_worker_powered",
		"microfaas_power_cap_watts",
		"microfaas_power_wakes_total",
		"microfaas_power_downs_total",
		"microfaas_power_cap_deferred_total",
		"microfaas_shard_queue_depth",
		"microfaas_shard_weight",
		"microfaas_shard_stolen_total",
		"microfaas_cluster_energy_joules_total",
		"microfaas_cluster_power_watts",
		MetricArrivalRate,
		MetricArrivalEWMA,
		MetricArrivalWindowMean,
		MetricArrivalWindowMax,
		"microfaas_forecast_workers_target",
		"microfaas_forecast_error_ratio",
		"microfaas_forecast_predictive_mode",
		"microfaas_forecast_fallbacks_total",
		"microfaas_forecast_rate_ahead_per_s",
		"microfaas_power_prewarm_target",
		"microfaas_function_energy_budget_joules",
		"microfaas_function_budget_spent_joules",
		"microfaas_function_budget_exhausted",
		"microfaas_budget_throttled_total",
		"microfaas_gateway_async_unfetched",
		"microfaas_gateway_polls_parked",
		"microfaas_gateway_async_expired_total",
	}
}

// resolveFraction is the resolve-side hysteresis: a firing page stays
// lit until both burns fall below this fraction of the threshold.
// Without it a burn hovering at the threshold flaps the alert on every
// scrape; with it the firing level and the resolve level are distinct.
const resolveFraction = 0.9

// pageState is one burn-rate page's live evaluation state.
type pageState struct {
	firing              bool
	sinceMs             float64
	shortBurn, longBurn float64
}

// The page windows, each with its own run cursor on every bound series.
const (
	fastShort = iota
	fastLong
	slowShort
	slowLong
	pageWindows
)

// ruleState pairs a rule with its two pages and the series its burns
// read: num and den sum the error series and every outcome
// (KindErrorRatio) or joules and completions (KindEnergyBudget); a
// KindLatency rule reads both sides of its split from num.
type ruleState struct {
	rule       Rule
	fast, slow pageState
	num, den   binding
}

// newRuleState compiles r's metric names and matchers into bindings.
func newRuleState(r Rule) ruleState {
	rs := ruleState{rule: r}
	var scope map[string]string // the function scope; nil = cluster-wide
	if r.Function != "" {
		scope = map[string]string{"function": r.Function}
	}
	switch r.Kind {
	case KindErrorRatio:
		bad := map[string]string{"result": "error"}
		for k, v := range scope {
			bad[k] = v
		}
		rs.num = binding{metric: r.metric(), match: bad}
		rs.den = binding{metric: r.metric(), match: scope}
	case KindEnergyBudget:
		rs.num = binding{metric: r.metric(), match: scope}
		rs.den = binding{metric: DefaultErrorMetric, match: scope}
	default: // KindLatency
		rs.num = binding{metric: r.metric() + "_bucket", match: scope,
			split: true, thresholdS: r.ThresholdS, goodLE: math.Inf(1), totalLE: math.Inf(-1)}
	}
	return rs
}

// bound is one series a rule reads and its run cursor per page window.
type bound struct {
	sr  *series
	cur [pageWindows]int64
}

// binding holds the series of metric that match, in the store's
// first-seen order, so a sum adds the terms a scan of the metric would,
// in the same order. A latency split binds only the two bounds it reads,
// over every bucket series in scope: good, the smallest le ≥ thresholdS,
// and total, the largest (+Inf on a well-formed histogram).
type binding struct {
	metric                      string
	match                       map[string]string
	ms                          *metricSeries // nil until the store has a series of metric
	seen                        int           // how many of ms.order have been tested
	series                      []bound
	split                       bool
	thresholdS, goodLE, totalLE float64
}

// bind tests the series the metric gained since the last call. A new
// series that moves a split's bounds rebinds it from the metric's first
// series, with fresh cursors.
func (b *binding) bind(s *Store) {
	if b.ms == nil {
		if b.ms = s.metrics[b.metric]; b.ms == nil {
			return
		}
	}
	fresh := b.ms.order[b.seen:]
	b.seen = len(b.ms.order)
	if b.split {
		good, total := b.goodLE, b.totalLE
		for _, sr := range fresh {
			if sr.hasLE && matchesAll(sr.labels, b.match) {
				if sr.le >= b.thresholdS && sr.le < b.goodLE {
					b.goodLE = sr.le
				}
				if sr.le > b.totalLE {
					b.totalLE = sr.le
				}
			}
		}
		if good != b.goodLE || total != b.totalLE {
			b.series, fresh = b.series[:0], b.ms.order
		}
	}
	for _, sr := range fresh {
		if matchesAll(sr.labels, b.match) && (!b.split || sr.hasLE && (sr.le == b.goodLE || sr.le == b.totalLE)) {
			b.series = append(b.series, bound{sr: sr})
		}
	}
}

// sum adds up the bound series' increase over page window win, which
// starts at from, in scrape start. A split sums its good bound's series
// into good and its total bound's into total; any other binding all of
// them into total.
func (b *binding) sum(win int, from time.Duration, start int64) (good, total float64) {
	for i := range b.series {
		bs := &b.series[i]
		inc := bs.sr.increaseAt(from, start, &bs.cur[win])
		if b.split && bs.sr.le == b.goodLE {
			good += inc
		}
		if !b.split || bs.sr.le == b.totalLE {
			total += inc
		}
	}
	return good, total
}

// sloEngine evaluates the configured rules on every scrape. Nil when no
// rules are set.
type sloEngine struct {
	rules []ruleState
}

// SetRules installs the SLO rules (replacing any previous set) after
// validating each. Alert state starts clean; call before traffic for
// deterministic timelines. Nil stores no-op.
func (s *Store) SetRules(rules []Rule) error {
	if s == nil {
		return nil
	}
	states := make([]ruleState, 0, len(rules))
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return err
		}
		states = append(states, newRuleState(r))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(states) == 0 {
		s.slo = nil
		return nil
	}
	s.slo = &sloEngine{rules: states}
	return nil
}

// PageStatus is one burn-rate page's current view.
type PageStatus struct {
	// Page is "fast" or "slow".
	Page string `json:"page"`
	// ShortWindow and LongWindow are the page's window pair.
	ShortWindow Duration `json:"short_window"`
	LongWindow  Duration `json:"long_window"`
	// Threshold is the burn rate both windows must exceed to fire.
	Threshold float64 `json:"threshold"`
	// ShortBurn and LongBurn are the burn rates at the last evaluation.
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
	// Firing reports whether the page is currently firing.
	Firing bool `json:"firing"`
	// SinceMs stamps the page's last transition (cluster-clock ms).
	SinceMs float64 `json:"since_ms"`
}

// RuleStatus is one rule's full evaluation state, served by GET /slo.
type RuleStatus struct {
	// Rule echoes the configured objective.
	Rule Rule `json:"rule"`
	// Pages holds the fast and slow page states, in that order.
	Pages []PageStatus `json:"pages"`
}

// SLOStatus reports every rule's pages as of the last scrape.
func (s *Store) SLOStatus() []RuleStatus {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.slo == nil {
		return []RuleStatus{}
	}
	out := make([]RuleStatus, 0, len(s.slo.rules))
	for i := range s.slo.rules {
		rs := &s.slo.rules[i]
		w := rs.rule.windows()
		out = append(out, RuleStatus{
			Rule: rs.rule,
			Pages: []PageStatus{
				pageStatus("fast", w.FastShort, w.FastLong, w.FastBurn, rs.fast),
				pageStatus("slow", w.SlowShort, w.SlowLong, w.SlowBurn, rs.slow),
			},
		})
	}
	return out
}

// pageStatus assembles one page's status row.
func pageStatus(page string, short, long Duration, burn float64, st pageState) PageStatus {
	return PageStatus{
		Page: page, ShortWindow: short, LongWindow: long, Threshold: burn,
		ShortBurn: st.shortBurn, LongBurn: st.longBurn,
		Firing: st.firing, SinceMs: st.sinceMs,
	}
}

// Alert is one currently-firing page, served by GET /alerts.
type Alert struct {
	// Rule names the firing objective.
	Rule string `json:"rule"`
	// Page is "fast" or "slow".
	Page string `json:"page"`
	// SinceMs stamps when the page began firing (cluster-clock ms).
	SinceMs float64 `json:"since_ms"`
	// ShortBurn/LongBurn/Threshold are the page's burn view at the last
	// evaluation.
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
	Threshold float64 `json:"threshold"`
}

// ActiveAlerts returns every page currently firing, in rule order.
func (s *Store) ActiveAlerts() []Alert {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []Alert{}
	if s.slo == nil {
		return out
	}
	for i := range s.slo.rules {
		rs := &s.slo.rules[i]
		w := rs.rule.windows()
		if rs.fast.firing {
			out = append(out, Alert{Rule: rs.rule.Name, Page: "fast", SinceMs: rs.fast.sinceMs,
				ShortBurn: rs.fast.shortBurn, LongBurn: rs.fast.longBurn, Threshold: w.FastBurn})
		}
		if rs.slow.firing {
			out = append(out, Alert{Rule: rs.rule.Name, Page: "slow", SinceMs: rs.slow.sinceMs,
				ShortBurn: rs.slow.shortBurn, LongBurn: rs.slow.longBurn, Threshold: w.SlowBurn})
		}
	}
	return out
}

// eval runs one evaluation pass over every rule: it binds the series
// the scrape met for the first time, then burns each page window and
// judges both pages. Called from Scrape with s.mu held; a nil engine
// no-ops.
func (e *sloEngine) eval(s *Store, now time.Duration) {
	if e == nil {
		return
	}
	for i := range e.rules {
		rs := &e.rules[i]
		rs.num.bind(s)
		rs.den.bind(s) // a latency rule's den has no metric: it binds nothing
		w := rs.rule.windows()
		rs.fast.shortBurn = s.burnLocked(rs, now, fastShort, w.FastShort)
		rs.fast.longBurn = s.burnLocked(rs, now, fastLong, w.FastLong)
		rs.slow.shortBurn = s.burnLocked(rs, now, slowShort, w.SlowShort)
		rs.slow.longBurn = s.burnLocked(rs, now, slowLong, w.SlowLong)
		e.evalPage(s, now, rs, &rs.fast, "fast", w.FastShort, w.FastLong, w.FastBurn)
		e.evalPage(s, now, rs, &rs.slow, "slow", w.SlowShort, w.SlowLong, w.SlowBurn)
	}
}

// evalPage judges one page on its freshly burned pair and records a
// transition event in the alert log when the firing state flips.
func (e *sloEngine) evalPage(s *Store, now time.Duration, rs *ruleState, st *pageState, page string, short, long Duration, threshold float64) {
	// Until the clock has covered the short window, the burn measures the
	// startup transient (a handful of samples against a mostly-empty
	// window), not the service; hold the page's state until then.
	if now < time.Duration(short) {
		return
	}
	firing := st.shortBurn >= threshold && st.longBurn >= threshold
	if st.firing {
		firing = st.shortBurn >= resolveFraction*threshold && st.longBurn >= resolveFraction*threshold
	}
	if firing == st.firing {
		return
	}
	st.firing = firing
	st.sinceMs = float64(now) / float64(time.Millisecond)
	typ := telemetry.EventAlertResolved
	if firing {
		typ = telemetry.EventAlertFiring
	}
	detail := fmt.Sprintf("burn short=%.2f long=%.2f threshold=%g windows=%s/%s",
		st.shortBurn, st.longBurn, threshold, fmtDur(time.Duration(short)), fmtDur(time.Duration(long)))
	s.alerts.Append(telemetry.Event{
		AtMs:     float64(now) / float64(time.Millisecond),
		Type:     typ,
		Function: rs.rule.Name,
		Worker:   page,
		Detail:   detail,
	})
}

// burnLocked computes a rule's burn rate over page window win, of
// length window, ending now; the scrape clock is searched once, for every
// series. Burn 1.0 means the objective is being consumed exactly at
// budget; above 1.0 the SLO is being violated at that multiple. Windows
// with no traffic burn 0. Caller holds s.mu.
func (s *Store) burnLocked(rs *ruleState, now time.Duration, win int, window Duration) float64 {
	from := now - time.Duration(window)
	if from < 0 {
		from = 0
	}
	start := s.clk.search(from)
	r := &rs.rule
	switch r.Kind {
	case KindErrorRatio:
		_, bad := rs.num.sum(win, from, start)
		_, total := rs.den.sum(win, from, start)
		if total <= 0 {
			return 0
		}
		return (bad / total) / (1 - r.Target)
	case KindEnergyBudget:
		_, joules := rs.num.sum(win, from, start)
		_, completions := rs.den.sum(win, from, start)
		if completions <= 0 {
			return 0
		}
		return (joules / completions) / r.BudgetJ
	default: // KindLatency
		good, total := rs.num.sum(win, from, start)
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

package tsdb

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"microfaas/internal/telemetry"
)

// Op selects a windowed query function.
type Op string

// The supported query functions. All operate over the window ending at
// the most recent scrape.
const (
	// OpLast returns the newest sample in the window.
	OpLast Op = "last"
	// OpAvg averages the samples in the window.
	OpAvg Op = "avg"
	// OpMin takes the smallest sample in the window.
	OpMin Op = "min"
	// OpMax takes the largest sample in the window.
	OpMax Op = "max"
	// OpIncrease is the counter growth across the window (clamped at 0).
	OpIncrease Op = "increase"
	// OpRate is OpIncrease divided by the covered seconds.
	OpRate Op = "rate"
	// OpQuantile resolves a histogram quantile from the window's growth
	// of the metric's _bucket series, merged across matching label sets
	// (shards included) — quantile_over_time via bucket merge.
	OpQuantile Op = "quantile"
)

// DefaultQueryWindow applies when a Query leaves Window zero.
const DefaultQueryWindow = time.Minute

// Query is one windowed request against the store.
type Query struct {
	// Metric is the series name (for OpQuantile: the histogram family
	// name, without the _bucket suffix).
	Metric string `json:"metric"`
	// Op is the query function (default OpLast).
	Op Op `json:"op,omitempty"`
	// Q is the quantile in [0,1] for OpQuantile.
	Q float64 `json:"q,omitempty"`
	// Window is the lookback ending at the last scrape (default
	// DefaultQueryWindow).
	Window time.Duration `json:"window,omitempty"`
	// Match keeps only series whose label sets contain every given pair.
	Match map[string]string `json:"match,omitempty"`
	// Range additionally returns the window's plot points per series.
	Range bool `json:"range,omitempty"`
}

// SeriesResult is one series' answer to a Query.
type SeriesResult struct {
	// Labels is the series' label set (omitted when unlabelled or for
	// merged quantile results, which carry the matchers instead).
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the query function's result over the window.
	Value float64 `json:"value"`
	// Points holds the window's samples when Query.Range was set.
	Points []Point `json:"points,omitempty"`
}

// Query evaluates q against the store. Series come back in first-seen
// order (deterministic under a seed). An unknown metric yields an empty
// result, not an error; errors are reserved for malformed queries. A
// worker=w matcher asks for w's own series, which the store records from
// the next scrape on (see the package doc).
func (s *Store) Query(q Query) ([]SeriesResult, error) {
	if s == nil {
		return nil, nil
	}
	if q.Metric == "" {
		return nil, fmt.Errorf("tsdb: query needs a metric")
	}
	if q.Op == "" {
		q.Op = OpLast
	}
	if q.Window <= 0 {
		q.Window = DefaultQueryWindow
	}
	switch q.Op {
	case OpLast, OpAvg, OpMin, OpMax, OpIncrease, OpRate:
	case OpQuantile:
		if !(q.Q >= 0 && q.Q <= 1) { // NaN fails both comparisons
			return nil, fmt.Errorf("tsdb: quantile %v outside [0,1]", q.Q)
		}
	default:
		return nil, fmt.Errorf("tsdb: unknown op %q", q.Op)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.askMatchLocked(q.Match)
	from := s.clk.last() - q.Window
	if from < 0 {
		from = 0
	}
	if q.Op == OpQuantile {
		v := s.quantileLocked(q.Metric, q.Q, from, q.Match)
		return []SeriesResult{{Labels: q.Match, Value: v}}, nil
	}
	ms, ok := s.metrics[q.Metric]
	if !ok {
		return []SeriesResult{}, nil
	}
	out := []SeriesResult{}
	for _, sr := range ms.order {
		if !matchesAll(sr.labels, q.Match) {
			continue
		}
		w := sr.window(from)
		if w.count == 0 {
			continue
		}
		res := SeriesResult{Labels: sr.labels, Value: opValue(q.Op, w)}
		if q.Range {
			res.Points = sr.points(from)
		}
		out = append(out, res)
	}
	return out, nil
}

// opValue resolves one non-quantile op over assembled window stats.
func opValue(op Op, w windowStats) float64 {
	switch op {
	case OpAvg:
		return w.sum / float64(w.count)
	case OpMin:
		return w.min
	case OpMax:
		return w.max
	case OpIncrease:
		return increase(w)
	case OpRate:
		return rate(w)
	default: // OpLast
		return w.last
	}
}

// increase is the counter growth across the window, clamped at zero so
// a counter reset (a shard restart) reads as no growth, not negative.
func increase(w windowStats) float64 {
	if w.count < 2 {
		return 0
	}
	return growth(w.first, w.last)
}

// growth is last - first clamped at zero.
func growth(first, last float64) float64 {
	d := last - first
	if d < 0 {
		return 0
	}
	return d
}

// rate is increase per covered second.
func rate(w windowStats) float64 {
	if w.count < 2 || w.lastAt <= w.firstAt {
		return 0
	}
	return increase(w) / (w.lastAt - w.firstAt).Seconds()
}

// quantileLocked merges the window increase of every matching
// <metric>_bucket series per le bound and resolves quantile q over the
// merged cumulative distribution — the distribution of observations
// recorded during the window. Caller holds s.mu.
func (s *Store) quantileLocked(metric string, q float64, from time.Duration, match map[string]string) float64 {
	ms, ok := s.metrics[metric+"_bucket"]
	if !ok {
		return 0
	}
	byLE := map[float64]float64{}
	for _, sr := range ms.order {
		if !sr.hasLE || !matchesAllExceptLE(sr.labels, match) {
			continue
		}
		byLE[sr.le] += sr.increase(from)
	}
	if len(byLE) == 0 {
		return 0
	}
	les := make([]float64, 0, len(byLE))
	for le := range byLE {
		les = append(les, le)
	}
	sort.Float64s(les)
	bounds := make([]float64, 0, len(les))
	counts := make([]uint64, 0, len(les))
	for _, le := range les {
		if !math.IsInf(le, 1) {
			bounds = append(bounds, le)
		}
		c := byLE[le]
		if c < 0 {
			c = 0
		}
		counts = append(counts, uint64(c+0.5))
	}
	if len(bounds) == 0 {
		return 0
	}
	total := counts[len(counts)-1]
	if total == 0 {
		return 0
	}
	return telemetry.QuantileFromCumulative(bounds, counts, total, q)
}

// matchesAllExceptLE is matchesAll ignoring any "le" matcher (the
// quantile op owns the le dimension).
func matchesAllExceptLE(labels, match map[string]string) bool {
	for k, v := range match {
		if k == "le" {
			continue
		}
		if labels[k] != v {
			return false
		}
	}
	return true
}

// parseLE parses an le bound, accepting +Inf.
func parseLE(s string) (float64, error) {
	if s == "+Inf" || s == "Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

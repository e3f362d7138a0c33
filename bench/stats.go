package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// it to count as resolved (the choosing-metrics rule: at least ten).
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted (ascending)
// and how many samples lie strictly beyond it. An empty slice yields 0, 0.
func percentile(sorted []time.Duration, p float64) (v time.Duration, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n - 1 - idx
}

// resolved reports whether a percentile with this many samples beyond it
// may be quoted: fewer than min and the number is one or two outliers.
func resolved(beyond, min int) bool { return beyond >= min }

// summary is a metric's value over a run's trials: the median is what is
// reported, min and max are written beside it.
type summary struct {
	Median, Min, Max float64
}

// summarize returns the median, min and max of vals (all zero when empty).
func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return summary{Median: med, Min: s[0], Max: s[len(s)-1]}
}

// quartiles matches Python's statistics.quantiles(vals, n=4) (the default
// exclusive method), which is what the repeatability rule is stated in.
// It needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of vals as a share of their median —
// the run-to-run spread a bound is judged against. Fewer than two values,
// or a zero median, give 0.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(vals)
	med := summarize(vals).Median
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// bound is how far a metric may move toward worse before it counts as a
// regression. Share is relative to the base median; AbsFloor widens the
// allowance to an absolute amount when the base is tiny (setup_s); Exact
// means any change at all is a behaviour change. A zero bound with Exact
// unset is "any increase".
type bound struct {
	Share    float64
	AbsFloor float64
	Exact    bool
}

// verdict classifies new against base for a metric where lowerBetter says
// which direction is good. baseVals/newVals are the per-trial values behind
// the two medians (they decide "unresolved" and the every-run-better rule).
func verdict(b bound, lowerBetter bool, baseVals, newVals []float64) string {
	base, cur := summarize(baseVals), summarize(newVals)
	if b.Exact {
		if base == cur {
			return "within bound"
		}
		return "worse"
	}
	// worse > 0 when cur moved in the bad direction.
	worse := cur.Median - base.Median
	allBetter := cur.Max < base.Min
	if !lowerBetter {
		worse = -worse
		allBetter = cur.Min > base.Max
	}
	if allBetter {
		return "better"
	}
	if s := math.Max(spread(baseVals), spread(newVals)); b.Share > 0 && s > b.Share {
		return "unresolved"
	}
	allow := math.Max(b.Share*math.Abs(base.Median), b.AbsFloor)
	switch {
	case worse > allow:
		return "worse"
	case -worse > allow:
		return "better"
	}
	return "within bound"
}

package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileSelection(t *testing.T) {
	var lat []time.Duration
	for i := 1; i <= 100; i++ {
		lat = append(lat, time.Duration(i))
	}
	for _, c := range []struct {
		p          float64
		want       time.Duration
		wantBeyond int
	}{
		{50, 50, 50},
		{99, 99, 1},
		{99.9, 100, 0},
		{100, 100, 0},
		{0, 1, 99},
	} {
		got, beyond := percentile(lat, c.p)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(1..100, %g) = %d with %d beyond, want %d with %d", c.p, got, beyond, c.want, c.wantBeyond)
		}
	}
	if v, beyond := percentile(nil, 99); v != 0 || beyond != 0 {
		t.Errorf("percentile(nil) = %d, %d beyond; want zeros", v, beyond)
	}
}

func TestSamplesBeyondRule(t *testing.T) {
	// 1,000 samples leave exactly 10 beyond the p99: just enough. 999 leave 9.
	for _, c := range []struct {
		n    int
		want bool
	}{{1000, true}, {999, false}, {3400, true}, {50, false}} {
		lat := make([]time.Duration, c.n)
		_, beyond := percentile(lat, 99)
		if got := resolved(beyond, minBeyond); got != c.want {
			t.Errorf("p99 of %d samples (%d beyond) resolved = %v, want %v", c.n, beyond, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	if got := summarize([]float64{5, 1, 3}); got != (summary{Median: 3, Min: 1, Max: 5}) {
		t.Errorf("odd count: got %+v", got)
	}
	if got := summarize([]float64{4, 1, 3, 2}); got != (summary{Median: 2.5, Min: 1, Max: 4}) {
		t.Errorf("even count: got %+v", got)
	}
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("empty: got %+v", got)
	}
	in := []float64{3, 1, 2}
	summarize(in)
	if in[0] != 3 {
		t.Error("summarize reordered its input")
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 4, 3, 2, 1}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if spread([]float64{7}) != 0 {
		t.Error("spread of one value must be 0")
	}
}

func TestVerdict(t *testing.T) {
	flat := func(v float64) []float64 { return []float64{v, v, v, v, v} }
	for _, c := range []struct {
		name        string
		b           bound
		lowerBetter bool
		base, cur   []float64
		want        string
	}{
		{"percentage: inside", bound{Share: 0.10}, true, flat(100), flat(109), "within bound"},
		{"percentage: beyond", bound{Share: 0.10}, true, flat(100), flat(111), "worse"},
		{"percentage: higher is better", bound{Share: 0.10}, false, flat(100), flat(89), "worse"},
		{"percentage: gain", bound{Share: 0.10}, false, flat(100), flat(120), "better"},
		{"any increase: equal", bound{}, true, flat(0), flat(0), "within bound"},
		{"any increase: up", bound{}, true, flat(0), flat(0.001), "worse"},
		{"absolute floor: small base", bound{Share: 0.25, AbsFloor: 0.05}, true, flat(0.01), flat(0.05), "within bound"},
		{"absolute floor: exceeded", bound{Share: 0.25, AbsFloor: 0.05}, true, flat(0.01), flat(0.07), "worse"},
		{"absolute floor: share governs large base", bound{Share: 0.25, AbsFloor: 0.05}, true, flat(1), flat(1.2), "within bound"},
		{"exact: same", bound{Exact: true}, true, flat(6.2797), flat(6.2797), "within bound"},
		{"exact: moved the good way", bound{Exact: true}, true, flat(6.2797), flat(6.2), "worse"},
		{"spread wider than bound", bound{Share: 0.10}, true, []float64{80, 90, 100, 110, 120}, []float64{85, 95, 105, 115, 125}, "unresolved"},
		{"every run better beats spread", bound{Share: 0.10}, true, []float64{80, 90, 100, 110, 120}, []float64{40, 50, 60, 70, 79}, "better"},
	} {
		if got := verdict(c.b, c.lowerBetter, c.base, c.cur); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}

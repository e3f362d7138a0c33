package tsdb

import (
	"math"
	"testing"
	"time"

	"microfaas/internal/telemetry"
)

// TestArrivalWindowSeriesExported is the regression for the tracker's
// sliding-window stats being write-only: the window mean and max must
// come back out of Query like any other series, with the per-shard
// submission counters merged into one per-function label set.
func TestArrivalWindowSeriesExported(t *testing.T) {
	regA := telemetry.NewRegistry()
	regB := telemetry.NewRegistry()
	subA := regA.Counter(MetricSubmittedByFunction, "submissions", "function", "matmul")
	subB := regB.Counter(MetricSubmittedByFunction, "submissions", "function", "matmul")
	s := New(Config{})
	s.AddSource("shard-00", regA)
	s.AddSource("shard-01", regB)

	// 2/s on each shard → a merged 4/s per-function rate.
	scrapeN(s, 6, time.Second, func(i int) { subA.Add(2); subB.Add(2) })

	for _, tc := range []struct {
		metric string
		want   float64
	}{
		{MetricArrivalWindowMean, 4},
		{MetricArrivalWindowMax, 4},
	} {
		res, err := s.Query(Query{Metric: tc.metric, Op: OpLast, Window: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || math.Abs(res[0].Value-tc.want) > 1e-9 {
			t.Fatalf("%s = %+v, want one series at %g", tc.metric, res, tc.want)
		}
		// The synthetic series carries only the function label: the two
		// shards' counters merged before differentiation.
		if len(res[0].Labels) != 1 || res[0].Labels["function"] != "matmul" {
			t.Fatalf("%s labels = %v, want function=matmul only", tc.metric, res[0].Labels)
		}
	}

	// The Forecasts view agrees with the queryable series.
	fc := s.Forecasts()
	if len(fc) != 1 || fc[0].WindowMean != 4 || fc[0].WindowMax != 4 || fc[0].Rate != 4 {
		t.Fatalf("forecasts = %+v, want rate/mean/max 4", fc)
	}
}

// TestArrivalWindowRotationAcrossTierBoundaries pushes the window
// series far past the raw ring so queries must be answered from the
// downsample tiers, and checks the ring rotation stays correct as
// buckets open and close at tier boundaries: a rate step from 3/s to
// 9/s must march through the window mean exactly (window size 20 →
// mean climbs in 0.3/s increments) whether the answering tier is raw,
// t1, or t2.
func TestArrivalWindowRotationAcrossTierBoundaries(t *testing.T) {
	reg := telemetry.NewRegistry()
	sub := reg.Counter(MetricSubmittedByFunction, "submissions", "function", "fft")
	// Tiny raw ring so the tail of the run is only visible downsampled;
	// at one scrape every 2.5 s, tier boundaries land every 4th and 24th
	// scrape.
	const interval = 2500 * time.Millisecond
	s := New(Config{RawCapacity: 8})
	s.AddSource("", reg)

	const step = 40 // scrape index where the rate steps 3/s → 9/s
	wantMean := func(i int) float64 {
		// i is the 1-based scrape index of the latest completed scrape.
		// Scrape 1 only seeds the counter diff; rates exist from scrape 2.
		rates := 0
		sum := 0.0
		for k := i; k >= 2 && rates < DefaultArrivalWindow; k-- {
			r := 3.0
			if k > step {
				r = 9.0
			}
			sum += r
			rates++
		}
		if rates == 0 {
			return 0
		}
		return sum / float64(rates)
	}
	for i := 1; i <= 80; i++ {
		rate := 3.0
		if i > step {
			rate = 9.0
		}
		sub.Add(rate * interval.Seconds())
		at := time.Duration(i) * interval
		s.Scrape(at)
		if i < 2 {
			continue
		}
		res, err := s.Query(Query{Metric: MetricArrivalWindowMean, Op: OpLast, Window: 2 * interval})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 {
			t.Fatalf("scrape %d: series = %+v", i, res)
		}
		if want := wantMean(i); math.Abs(res[0].Value-want) > 1e-9 {
			t.Fatalf("scrape %d: window mean = %g, want %g", i, res[0].Value, want)
		}
	}

	// By now only the last 8 raw points survive; a window reaching back
	// 60 scrapes must be served by the tiers. The max series saw the
	// 9/s plateau and the mean settled back to 9 after the window
	// rotated the 3/s samples out.
	mx, err := s.Query(Query{Metric: MetricArrivalWindowMax, Op: OpMax, Window: 60 * interval})
	if err != nil {
		t.Fatal(err)
	}
	if len(mx) != 1 || math.Abs(mx[0].Value-9) > 1e-9 {
		t.Fatalf("window max over tiers = %+v, want 9", mx)
	}
	// Range query across the step: the returned points (raw + tier
	// buckets merged) must cover the pre-step era even though the raw
	// ring no longer does.
	rng, err := s.Query(Query{Metric: MetricArrivalWindowMean, Op: OpAvg, Window: 79 * interval})
	if err != nil {
		t.Fatal(err)
	}
	if len(rng) != 1 || rng[0].Value <= 3 || rng[0].Value >= 9 {
		t.Fatalf("mean-of-means across the step = %+v, want strictly between 3 and 9", rng)
	}
}

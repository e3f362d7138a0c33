package forecast

import (
	"math"
	"testing"
	"time"
)

// tick feeds n one-second observations of a single function whose rate
// at step i (0-based) is rate(i), with EWMA tracking the rate exactly
// (the store's smoothing is not under test here). Returns the clock
// after the last observation.
func tickN(p *Predictor, start time.Duration, n int, rate func(i int) float64) time.Duration {
	now := start
	for i := 0; i < n; i++ {
		now = start + time.Duration(i+1)*time.Second
		r := rate(i)
		p.Observe(now, []Sample{{Function: "f", Rate: r, EWMA: r}})
	}
	return now
}

func TestColdStartEmptyHistory(t *testing.T) {
	p := NewPredictor(Policy{})
	fns, target := p.Predict(0)
	if len(fns) != 0 || target != 0 {
		t.Fatalf("cold predict = %v, %d; want empty, 0", fns, target)
	}
	if p.ErrorRatio() != 0 || len(p.order) != 0 {
		t.Fatalf("cold error = %g over %d functions, want 0 over none", p.ErrorRatio(), len(p.order))
	}
	// Observing an empty sample set must not corrupt anything.
	p.Observe(time.Second, nil)
	if _, target := p.Predict(time.Second); target != 0 {
		t.Fatalf("target after empty observe = %d, want 0", target)
	}
}

func TestStepTraceConvergesToLittleLaw(t *testing.T) {
	p := NewPredictor(Policy{Horizon: 2 * time.Second, CycleTime: time.Second})
	// Quiet, then a step to 4/s.
	now := tickN(p, 0, 10, func(i int) float64 { return 0 })
	now = tickN(p, now, 30, func(i int) float64 { return 4 })
	fns, target := p.Predict(now)
	if len(fns) != 1 || fns[0].Function != "f" {
		t.Fatalf("forecasts = %+v", fns)
	}
	// Steady state: RateAhead ≈ 4/s, demand = 4 workers, ×1.25 → 5.
	if math.Abs(fns[0].RateAhead-4) > 0.5 {
		t.Fatalf("steady RateAhead = %g, want ≈4", fns[0].RateAhead)
	}
	if target != 5 {
		t.Fatalf("target = %d, want ceil(4×1×1.25) = 5", target)
	}
	// The step itself was mispredicted; steady state scored well, so the
	// smoothed error must have decayed back under the fallback limit.
	if e := p.ErrorRatio(); e > DefaultErrLimit {
		t.Fatalf("steady error ratio = %g, want ≤ %g", e, DefaultErrLimit)
	}
	if !p.byFn["f"].errSeeded {
		t.Fatal("no predictions were scored")
	}
}

func TestRampTraceExtrapolatesAhead(t *testing.T) {
	p := NewPredictor(Policy{Horizon: 2 * time.Second})
	// 0.5/s² ramp: the trend term must push RateAhead above the current
	// smoothed rate — that lead is what pre-wakes workers before the
	// load lands.
	now := tickN(p, 0, 20, func(i int) float64 { return 0.5 * float64(i) })
	fns, _ := p.Predict(now)
	if len(fns) != 1 {
		t.Fatalf("forecasts = %+v", fns)
	}
	if fns[0].RateAhead <= fns[0].EWMA {
		t.Fatalf("ramp RateAhead = %g ≤ EWMA %g, want extrapolation ahead of the ramp",
			fns[0].RateAhead, fns[0].EWMA)
	}
	// ≈ EWMA + 0.5/s² × 2 s = EWMA + 1.
	if lead := fns[0].RateAhead - fns[0].EWMA; math.Abs(lead-1) > 0.5 {
		t.Fatalf("ramp lead = %g, want ≈1 (slope × horizon)", lead)
	}
}

func TestDiurnalPriorAnticipatesRepeatedRamp(t *testing.T) {
	const period = 100 * time.Second
	pol := Policy{Horizon: 2 * time.Second, Period: period}
	// Square diurnal shape: 1/s in the first half of the period, 9/s in
	// the second.
	shape := func(i int) float64 {
		if (time.Duration(i+1)*time.Second)%period < period/2 {
			return 1
		}
		return 9
	}
	// Cold predictor at the end of period 1's quiet half: no prior, so
	// the forecast just ahead of the step sees only the quiet trend.
	cold := NewPredictor(pol)
	coldNow := tickN(cold, 0, 48, shape) // t = 48 s; step at 50 s is within the horizon
	coldF, _ := cold.Predict(coldNow)

	// Same instant one period later: the histogram has seen the busy
	// half once, so the blended forecast anticipates the ramp.
	warm := NewPredictor(pol)
	warmNow := tickN(warm, 0, 148, shape) // t = 148 s; step at 150 s within horizon
	warmF, _ := warm.Predict(warmNow)

	if coldF[0].RateAhead >= warmF[0].RateAhead {
		t.Fatalf("pre-step forecast: cold %g ≥ warm %g, want the diurnal prior to raise it",
			coldF[0].RateAhead, warmF[0].RateAhead)
	}
	if warmF[0].RateAhead < 3 {
		t.Fatalf("warm pre-step RateAhead = %g, want ≥3 (prior-blended)", warmF[0].RateAhead)
	}
}

func TestBurstyTraceDrivesErrorPastFallback(t *testing.T) {
	p := NewPredictor(Policy{Horizon: time.Second})
	// Alternate 8/s and silence every tick with a one-tick horizon:
	// every prediction lands on the opposite phase and is maximally
	// wrong. The smoothed error must cross the fallback limit.
	tickN(p, 0, 40, func(i int) float64 {
		if i%2 == 0 {
			return 8
		}
		return 0
	})
	if e := p.ErrorRatio(); e <= DefaultErrLimit {
		t.Fatalf("bursty error ratio = %g, want > %g (forces reactive fallback)", e, DefaultErrLimit)
	}
}

func TestClockSkewDropsNonAdvancingSamples(t *testing.T) {
	p := NewPredictor(Policy{Horizon: 2 * time.Second})
	now := tickN(p, 0, 10, func(i int) float64 { return 3 })
	before, targetBefore := p.Predict(now)

	// A repeated scrape and a backwards one must both be ignored.
	p.Observe(now, []Sample{{Function: "f", Rate: 100, EWMA: 100}})
	p.Observe(now-5*time.Second, []Sample{{Function: "f", Rate: 100, EWMA: 100}})

	after, targetAfter := p.Predict(now)
	if targetBefore != targetAfter || before[0].RateAhead != after[0].RateAhead ||
		before[0].EWMA != after[0].EWMA {
		t.Fatalf("skewed samples changed state: %+v → %+v", before[0], after[0])
	}
	// And the clock still advances normally afterwards.
	p.Observe(now+time.Second, []Sample{{Function: "f", Rate: 3, EWMA: 3}})
	if got, _ := p.Predict(now + time.Second); math.Abs(got[0].EWMA-3) > 1e-9 {
		t.Fatalf("post-skew observe was dropped: %+v", got[0])
	}
}

func TestPredictRespectsMaxWorkers(t *testing.T) {
	p := NewPredictor(Policy{CycleTime: time.Second, MaxWorkers: 3})
	now := tickN(p, 0, 10, func(i int) float64 { return 50 })
	if _, target := p.Predict(now); target != 3 {
		t.Fatalf("target = %d, want capped at 3", target)
	}
}

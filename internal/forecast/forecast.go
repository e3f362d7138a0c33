// Package forecast turns the time-series store's arrival-rate telemetry
// into power decisions: it closes the ROADMAP's "predictive warm pools"
// loop between internal/tsdb (which learns per-function EWMA and
// sliding-window arrival rates) and internal/powermgr (which gained a
// SetWarmTarget predictive mode).
//
// The Predictor is the pure estimation core. Per function it keeps
//
//   - the store's EWMA arrival rate plus a smoothed trend (rate slope),
//     extrapolated over the look-ahead horizon — wake latency plus a
//     safety margin, so a node woken on the forecast is warm by the
//     time the predicted load lands;
//   - a diurnal histogram: the mean observed rate per time-of-period
//     bin, which after one full period becomes a prior for "this time
//     yesterday" and is blended with the trend extrapolation;
//   - a pending-prediction ledger: every forecast made now for now+H is
//     scored against the smoothed rate actually observed at now+H, and
//     the symmetric error (sMAPE-style, bounded [0,2]) feeds a smoothed
//     per-function error ratio.
//
// The Controller glues the loop together on a fixed tick: scrape-side
// forecasts in (Store.Forecasts), warm-pool target out
// (Manager.SetWarmTarget). Its feedback state machine watches the
// rate-weighted error ratio — while predictions hold, the cluster runs
// Predictive (pre-wake ahead of ramps, pre-sleep ahead of troughs);
// when the error crosses ErrLimit the controller falls back to pure
// reactive power management, and only re-engages after the error stays
// below ErrRecover for RecoverTicks consecutive ticks.
//
// Determinism: the package consumes no randomness and schedules nothing
// by itself — the owner drives Tick (pre-scheduled virtual-clock events
// in the sim, a wall-clock ticker in live mode), functions are visited
// in the store's first-seen order, and a cluster without a controller
// is byte-identical to one built before this package existed.
package forecast

import (
	"math"
	"time"
)

// The predictor's and controller's tuning. Tick, Horizon, CycleTime,
// Period and RecoverTicks are the defaults for Policy zero values; the
// rest are fixed.
const (
	// DefaultTick is the controller's tick cadence.
	DefaultTick = 5 * time.Second
	// DefaultHorizon is the forecast look-ahead: the paper SBC's 1.51 s
	// boot plus a safety margin, so a pre-wake issued on the forecast
	// finishes booting before the predicted load arrives.
	DefaultHorizon = 2 * time.Second
	// DefaultMargin is the headroom multiplier on the predicted worker
	// demand (dimensionless).
	DefaultMargin = 1.25
	// DefaultCycleTime is the assumed per-invocation service time used
	// to convert arrival rate into worker demand via Little's law when
	// the caller does not supply one.
	DefaultCycleTime = time.Second
	// DefaultPeriod is the diurnal histogram's cycle length.
	DefaultPeriod = 24 * time.Hour
	// DefaultBins is the diurnal histogram's bin count per period.
	DefaultBins = 48
	// DefaultErrLimit is the smoothed error ratio above which the
	// controller falls back to reactive mode (sMAPE scale, [0,2]).
	DefaultErrLimit = 0.45
	// DefaultErrRecover is the error ratio the controller must stay
	// under to re-engage predictive mode (sMAPE scale, [0,2]).
	DefaultErrRecover = 0.25
	// DefaultRecoverTicks is how many consecutive under-ErrRecover
	// ticks re-engage predictive mode.
	DefaultRecoverTicks = 3
	// DefaultErrAlpha is the error EWMA's smoothing factor.
	DefaultErrAlpha = 0.2
	// DefaultErrFloor is the arrival rate (per second) below which
	// prediction errors are not scored — at near-zero rates the
	// symmetric error is all noise.
	DefaultErrFloor = 0.02
)

// Policy tunes the predictor and the controller's feedback loop.
type Policy struct {
	// Tick is the controller's cadence (default DefaultTick).
	Tick time.Duration
	// Horizon is the look-ahead: wake latency plus safety margin
	// (default DefaultHorizon). Predictions made now are for now+Horizon.
	// Settable because the controller tests run a 1 s horizon.
	Horizon time.Duration
	// CycleTime is the mean per-invocation service time used to convert
	// predicted arrival rate into worker demand (Little's law: workers =
	// rate × CycleTime; default DefaultCycleTime).
	CycleTime time.Duration
	// Period is the diurnal histogram's cycle (default DefaultPeriod;
	// experiments pass their trace's day length).
	Period time.Duration
	// RecoverTicks is how many consecutive good ticks re-engage
	// predictive mode (default DefaultRecoverTicks). Settable because the
	// controller tests recover after 2.
	RecoverTicks int
	// MaxWorkers caps the warm-pool target in nodes (0 = uncapped;
	// callers normally pass the cluster size).
	MaxWorkers int
	// Spare is saturation headroom: when every powered node is busy at
	// tick time, the controller raises the warm target to powered+Spare
	// (capped at MaxWorkers) so the next burst arrival finds a warm node
	// instead of waiting out a cold boot (0 = disabled).
	Spare int
}

// withDefaults returns the policy with zero values replaced.
func (p Policy) withDefaults() Policy {
	if p.Tick <= 0 {
		p.Tick = DefaultTick
	}
	if p.Horizon <= 0 {
		p.Horizon = DefaultHorizon
	}
	if p.CycleTime <= 0 {
		p.CycleTime = DefaultCycleTime
	}
	if p.Period <= 0 {
		p.Period = DefaultPeriod
	}
	if p.RecoverTicks <= 0 {
		p.RecoverTicks = DefaultRecoverTicks
	}
	return p
}

// Sample is one function's observed arrival state at a tick — the
// subset of tsdb.Forecast the predictor consumes (kept structural so
// the predictor is testable without a store).
type Sample struct {
	// Function names the workload function.
	Function string
	// Rate is the instantaneous arrival rate (per second).
	Rate float64
	// EWMA is the smoothed arrival rate (per second).
	EWMA float64
}

// pendingPred is one not-yet-scored prediction: rate forecast at
// issue-time for the due instant.
type pendingPred struct {
	due  time.Duration
	rate float64
}

// fnState is one function's estimation state.
type fnState struct {
	name  string
	rate  float64 // latest instantaneous rate (per second)
	ewma  float64 // latest smoothed rate (per second)
	slope float64 // smoothed rate trend (per second per second)
	// activity is a slow-decaying envelope of the smoothed rate; it
	// weights the function's error vote so a bursty function keeps
	// voting through its quiet phases.
	activity float64
	// Diurnal histogram. The prior must come only from completed
	// periods — blending the bin currently being filled would drag
	// every forecast toward the running intra-period mean — so samples
	// accumulate in cur* and roll into hist* when the period wraps.
	histSum   []float64
	histCnt   []int
	curSum    []float64
	curCnt    []int
	curPeriod int64 // period index the cur* bins belong to
	// pending holds issued-but-not-due predictions, oldest first.
	pending []pendingPred
	// errEWMA is the smoothed symmetric prediction error ([0,2]);
	// errSeeded marks the first scored prediction.
	errEWMA   float64
	errSeeded bool
	samples   int // observations so far (drives the cold-start warmup)
}

// warmupSamples is how many observations a function needs before the
// predictor starts issuing scorable predictions for it: the first
// samples of a freshly-appeared function carry no usable history, and
// scoring them would seed the error EWMA with cold-start noise.
const warmupSamples = 3

// Predictor is the pure estimation core: per-function trend + diurnal
// prior + prediction-error accounting. It is not safe for concurrent
// use — the Controller (or a test) serializes access.
type Predictor struct {
	pol    Policy
	byFn   map[string]*fnState
	order  []*fnState
	lastAt time.Duration
	seen   bool
	// Aggregate (cluster-demand) prediction ledger. The controller sizes
	// the warm pool from the SUM of per-function forecasts, so the
	// feedback signal grades that sum: per-function noise that cancels
	// in the total (one function's over-read against another's under-
	// read) must not trip the fallback.
	aggPending []pendingPred
	aggErr     float64
	aggSeeded  bool
}

// NewPredictor builds a Predictor with defaults applied.
func NewPredictor(pol Policy) *Predictor {
	return &Predictor{pol: pol.withDefaults(), byFn: map[string]*fnState{}}
}

// binOf maps an instant to its diurnal histogram bin.
func (p *Predictor) binOf(at time.Duration) int {
	period := p.pol.Period
	phase := at % period
	b := int(float64(phase) / float64(period) * float64(DefaultBins))
	if b >= DefaultBins {
		b = DefaultBins - 1
	}
	return b
}

// Observe feeds one tick's arrival samples (in the store's first-seen
// order). Predictions that have come due are scored against the
// observed rate; then trend, histogram, and a fresh now+Horizon
// prediction are recorded per function. A sample whose clock does not
// advance — a duplicate or backwards scrape, i.e. clock skew — is
// dropped whole, keeping the rings and slopes consistent.
func (p *Predictor) Observe(now time.Duration, samples []Sample) {
	if p.seen && now <= p.lastAt {
		return
	}
	var dt float64
	if p.seen {
		dt = (now - p.lastAt).Seconds()
	}
	for _, smp := range samples {
		st, ok := p.byFn[smp.Function]
		if !ok {
			st = &fnState{
				name:      smp.Function,
				histSum:   make([]float64, DefaultBins),
				histCnt:   make([]int, DefaultBins),
				curSum:    make([]float64, DefaultBins),
				curCnt:    make([]int, DefaultBins),
				curPeriod: int64(now / p.pol.Period),
			}
			p.byFn[smp.Function] = st
			p.order = append(p.order, st)
		}
		// Score due predictions against the smoothed rate observed now —
		// the forecast's actual target. Scoring against the raw window
		// rate would grade every prediction for a sparse function against
		// sampling noise (a 0.05/s function's window reads 0 or 0.2,
		// never 0.05) and drive the error to the sMAPE ceiling.
		for len(st.pending) > 0 && st.pending[0].due <= now {
			pred := st.pending[0]
			st.pending = st.pending[1:]
			p.scoreLocked(st, pred.rate, smp.EWMA)
		}
		// Trend: smoothed EWMA slope over the actual tick spacing.
		if dt > 0 {
			inst := (smp.EWMA - st.ewma) / dt
			st.slope = 0.5*inst + 0.5*st.slope
		}
		st.rate = smp.Rate
		st.ewma = smp.EWMA
		st.activity *= 0.95
		if smp.EWMA > st.activity {
			st.activity = smp.EWMA
		}
		// Period wrap: the finished period's bins become prior history.
		if pi := int64(now / p.pol.Period); pi != st.curPeriod {
			for b := range st.curSum {
				st.histSum[b] += st.curSum[b]
				st.histCnt[b] += st.curCnt[b]
				st.curSum[b], st.curCnt[b] = 0, 0
			}
			st.curPeriod = pi
		}
		b := p.binOf(now)
		st.curSum[b] += smp.Rate
		st.curCnt[b]++
		st.samples++
		// Issue this tick's prediction for now+Horizon, once past the
		// cold-start warmup.
		if st.samples >= warmupSamples {
			st.pending = append(st.pending, pendingPred{
				due:  now + p.pol.Horizon,
				rate: p.aheadLocked(st, now),
			})
		}
	}
	// Aggregate ledger: score due cluster-rate predictions against the
	// summed smoothed rate, then issue this tick's sum-of-forecasts.
	if len(samples) > 0 {
		var total float64
		for _, smp := range samples {
			total += smp.EWMA
		}
		for len(p.aggPending) > 0 && p.aggPending[0].due <= now {
			pred := p.aggPending[0]
			p.aggPending = p.aggPending[1:]
			if pred.rate >= DefaultErrFloor || total >= DefaultErrFloor {
				e := math.Abs(pred.rate-total) / ((pred.rate + total) / 2)
				if !p.aggSeeded {
					p.aggErr = e
					p.aggSeeded = true
				} else {
					p.aggErr = DefaultErrAlpha*e + (1-DefaultErrAlpha)*p.aggErr
				}
			}
		}
		var ahead float64
		ready := false
		for _, smp := range samples {
			st := p.byFn[smp.Function]
			ahead += p.aheadLocked(st, now)
			if st.samples >= warmupSamples {
				ready = true
			}
		}
		if ready {
			p.aggPending = append(p.aggPending, pendingPred{due: now + p.pol.Horizon, rate: ahead})
		}
	}
	p.lastAt = now
	p.seen = true
}

// scoreLocked folds one resolved prediction into the function's error
// EWMA. Near-zero rates are not scored: sMAPE at the floor is noise.
func (p *Predictor) scoreLocked(st *fnState, pred, actual float64) {
	if pred < DefaultErrFloor && actual < DefaultErrFloor {
		return
	}
	e := math.Abs(pred-actual) / ((pred + actual) / 2)
	if !st.errSeeded {
		st.errEWMA = e
		st.errSeeded = true
	} else {
		st.errEWMA = DefaultErrAlpha*e + (1-DefaultErrAlpha)*st.errEWMA
	}
}

// aheadLocked is the rate forecast for now+Horizon: the trend-
// extrapolated EWMA, blended half-and-half with the diurnal prior once
// the target bin has history from a completed period.
func (p *Predictor) aheadLocked(st *fnState, now time.Duration) float64 {
	h := p.pol.Horizon.Seconds()
	rate := st.ewma + st.slope*h
	if rate < 0 {
		rate = 0
	}
	if b := p.binOf(now + p.pol.Horizon); st.histCnt[b] > 0 {
		rate = 0.5*rate + 0.5*st.histSum[b]/float64(st.histCnt[b])
	}
	return rate
}

// FunctionForecast is one function's row in a prediction: the observed
// rates, the horizon forecast, and its share of the worker demand.
type FunctionForecast struct {
	// Function names the workload function.
	Function string `json:"function"`
	// Rate is the latest instantaneous arrival rate (per second).
	Rate float64 `json:"rate_per_s"`
	// EWMA is the latest smoothed arrival rate (per second).
	EWMA float64 `json:"ewma_per_s"`
	// RateAhead is the forecast arrival rate at now+Horizon (per
	// second).
	RateAhead float64 `json:"rate_ahead_per_s"`
	// Workers is the function's fractional worker demand (RateAhead ×
	// CycleTime, before the margin).
	Workers float64 `json:"workers"`
	// ErrorRatio is the function's smoothed symmetric prediction error
	// ([0,2]; 0 until a prediction has been scored).
	ErrorRatio float64 `json:"error_ratio"`
}

// Predict returns every tracked function's horizon forecast (in
// first-seen order) and the warm-pool target: ceil(Margin × Σ rate ×
// CycleTime), capped at MaxWorkers.
func (p *Predictor) Predict(now time.Duration) ([]FunctionForecast, int) {
	cycle := p.pol.CycleTime.Seconds()
	out := make([]FunctionForecast, 0, len(p.order))
	var demand float64
	for _, st := range p.order {
		ahead := p.aheadLocked(st, now)
		f := FunctionForecast{
			Function:   st.name,
			Rate:       st.rate,
			EWMA:       st.ewma,
			RateAhead:  ahead,
			Workers:    ahead * cycle,
			ErrorRatio: st.errEWMA,
		}
		demand += f.Workers
		out = append(out, f)
	}
	// The epsilon keeps a float residual (e.g. a decayed-to-nothing
	// slope term) from bumping an exact integer demand up a node.
	target := int(math.Ceil(demand*DefaultMargin - 1e-6))
	if target < 0 {
		target = 0
	}
	if p.pol.MaxWorkers > 0 && target > p.pol.MaxWorkers {
		target = p.pol.MaxWorkers
	}
	return out, target
}

// ErrorRatio is the controller's feedback signal: the smoothed symmetric
// error of the aggregate (cluster-demand) forecast — the sum the warm
// pool is actually sized from, so per-function noise that cancels in the
// total does not trip the fallback. Until an aggregate prediction has
// been scored it falls back to the activity-weighted mean of the
// per-function error EWMAs (the weight is a slow-decaying rate envelope,
// so a bursty function keeps voting through its quiet phases); with no
// signal at all it reports 0.
func (p *Predictor) ErrorRatio() float64 {
	if p.aggSeeded {
		return p.aggErr
	}
	var wsum, esum float64
	for _, st := range p.order {
		if !st.errSeeded || st.activity < DefaultErrFloor {
			continue
		}
		esum += st.activity * st.errEWMA
		wsum += st.activity
	}
	if wsum == 0 {
		return 0
	}
	return esum / wsum
}

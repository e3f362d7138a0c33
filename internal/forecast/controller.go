package forecast

import (
	"fmt"
	"sync"
	"time"

	"microfaas/internal/powermgr"
	"microfaas/internal/telemetry"
	"microfaas/internal/tsdb"
)

// spareMinBusy is the least number of simultaneously held nodes that
// counts as saturation for the Policy.Spare headroom bump. One to
// three busy nodes all granted at once is routine trough-and-shoulder
// traffic — pre-waking an extra node there burns energy the forecast
// floor already decided against. Four or more saturated nodes means a
// genuine burst is outrunning the rate forecast, and the next arrival
// would eat a cold boot the spare can absorb instead.
const spareMinBusy = 4

// Mode is the controller's feedback state.
type Mode int

const (
	// ModePredictive: forecasts are trusted; the controller steers the
	// power manager's warm floor every tick.
	ModePredictive Mode = iota
	// ModeFallback: forecasts mispredicted past ErrLimit; the power
	// manager runs pure reactive (warm floor disengaged) until the
	// error ratio stays under ErrRecover for RecoverTicks ticks.
	ModeFallback
)

// String returns "predictive" or "fallback".
func (m Mode) String() string {
	if m == ModeFallback {
		return "fallback"
	}
	return "predictive"
}

// ControllerConfig assembles a Controller.
type ControllerConfig struct {
	// Store is the time-series store whose arrival tracker feeds the
	// predictor (required).
	Store *tsdb.Store
	// Manager is the power manager the controller steers through
	// SetWarmTarget (nil = observe-only: forecasts and error accounting
	// without power actuation).
	Manager *powermgr.Manager
	// Policy tunes the predictor and the feedback loop.
	Policy Policy
	// Telemetry receives the forecast gauges and fallback counter (nil
	// = disabled; behavior is identical either way).
	Telemetry *telemetry.Telemetry
}

// Controller runs the prediction loop: each Tick it reads the store's
// arrival forecasts, advances the predictor, and — in predictive mode —
// sets the power manager's warm floor. All methods are safe for
// concurrent use; the controller's lock is released before calling into
// the manager.
type Controller struct {
	pol   Policy
	store *tsdb.Store
	mgr   *powermgr.Manager

	mu        sync.Mutex
	pred      *Predictor
	mode      Mode
	goodTicks int
	fallbacks int
	ticks     int
	last      Snapshot

	m ctlMetrics
}

// NewController builds a Controller (predictive mode, no tick yet).
func NewController(cfg ControllerConfig) (*Controller, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("forecast: a tsdb.Store is required")
	}
	pol := cfg.Policy.withDefaults()
	c := &Controller{
		pol:   pol,
		store: cfg.Store,
		mgr:   cfg.Manager,
		pred:  NewPredictor(pol),
	}
	c.initTelemetry(cfg.Telemetry)
	return c, nil
}

// Tick advances the loop at the given cluster-clock instant: observe,
// predict, update the feedback state machine, and steer the manager.
// The owner drives it — pre-scheduled virtual-clock events in the sim,
// Start's wall ticker in live mode.
func (c *Controller) Tick(now time.Duration) {
	fcs := c.store.Forecasts()
	samples := make([]Sample, len(fcs))
	for i, f := range fcs {
		samples[i] = Sample{Function: f.Function, Rate: f.Rate, EWMA: f.EWMA}
	}
	// Occupancy is read before c.mu: the manager's lock is a leaf and
	// must never nest inside ours in the other order.
	var busy, powered int
	if c.mgr != nil && c.pol.Spare > 0 {
		busy, powered = c.mgr.Occupancy()
	}
	c.mu.Lock()
	c.pred.Observe(now, samples)
	fns, target := c.pred.Predict(now)
	if c.pol.Spare > 0 && busy >= spareMinBusy && busy == powered {
		// Saturation headroom: every powered node is busy, so the next
		// arrival would eat a cold boot. Raise the floor past the
		// occupancy point regardless of what the rate forecast says.
		want := powered + c.pol.Spare
		if c.pol.MaxWorkers > 0 {
			want = min(want, c.pol.MaxWorkers)
		}
		if want > target {
			target = want
		}
	}
	errRatio := c.pred.ErrorRatio()
	// Pre-sleep only ahead of troughs: trimming is reserved for ticks
	// whose aggregate forecast is below the current smoothed rate. On
	// flat or rising demand the floor still pre-wakes and holds, but
	// surplus decays through the reactive idle timeout — trimming there
	// just re-boots the same nodes when the next burst lands.
	var ewmaSum, aheadSum float64
	for _, f := range fns {
		ewmaSum += f.EWMA
		aheadSum += f.RateAhead
	}
	declining := aheadSum < ewmaSum
	switch c.mode {
	case ModePredictive:
		if errRatio > DefaultErrLimit {
			c.mode = ModeFallback
			c.goodTicks = 0
			c.fallbacks++
			c.m.fallbacks.Inc()
		}
	case ModeFallback:
		if errRatio <= DefaultErrRecover {
			c.goodTicks++
			if c.goodTicks >= c.pol.RecoverTicks {
				c.mode = ModePredictive
			}
		} else {
			c.goodTicks = 0
		}
	}
	mode := c.mode
	c.ticks++
	c.last = Snapshot{
		Mode:       mode.String(),
		ErrorRatio: errRatio,
		Target:     target,
		Declining:  declining,
		Fallbacks:  c.fallbacks,
		Ticks:      c.ticks,
		TickMs:     float64(c.pol.Tick) / float64(time.Millisecond),
		HorizonMs:  float64(c.pol.Horizon) / float64(time.Millisecond),
		Functions:  fns,
	}
	c.m.target.Set(float64(target))
	c.m.errRatio.Set(errRatio)
	if mode == ModePredictive {
		c.m.predictive.Set(1)
	} else {
		c.m.predictive.Set(0)
	}
	c.noteRatesLocked(fns)
	c.mu.Unlock()
	if c.mgr == nil {
		return
	}
	// Manager calls happen outside c.mu: its lock is a leaf under ours.
	switch {
	case mode != ModePredictive:
		c.mgr.SetWarmTarget(-1)
	case declining:
		c.mgr.SetWarmTarget(target)
	default:
		c.mgr.SetWarmFloor(target)
	}
}

// Start drives Tick on a self-rescheduling runtime timer every
// `every` (0 = the policy tick) — live mode's wall-clock loop. The
// returned stop function cancels the loop and disengages the warm
// floor. Sim owners pre-schedule Tick events instead, keeping the
// virtual-clock event set finite and deterministic.
func (c *Controller) Start(rt powermgr.Runtime, every time.Duration) (stop func()) {
	if every <= 0 {
		every = c.pol.Tick
	}
	var mu sync.Mutex
	var cancel func()
	stopped := false
	var arm func()
	arm = func() {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return
		}
		cancel = rt.After(every, func() {
			c.Tick(rt.Now())
			arm()
		})
	}
	arm()
	return func() {
		mu.Lock()
		stopped = true
		if cancel != nil {
			cancel()
		}
		mu.Unlock()
		if c.mgr != nil {
			c.mgr.SetWarmTarget(-1)
		}
	}
}

// Snapshot is the controller's point-in-time state, as served by the
// gateway's /forecast endpoint and rendered by `faasctl forecast`.
type Snapshot struct {
	// Mode is "predictive" or "fallback".
	Mode string `json:"mode"`
	// ErrorRatio is the rate-weighted smoothed prediction error
	// ([0,2]; sMAPE scale — multiply by 100 for a MAPE-like percent).
	ErrorRatio float64 `json:"error_ratio"`
	// Target is the warm-pool target in nodes from the latest tick.
	Target int `json:"target_workers"`
	// Declining is true when the latest tick's aggregate forecast sits
	// below the current smoothed rate — the ticks on which the
	// controller allows pre-sleep.
	Declining bool `json:"declining"`
	// Fallbacks counts predictive→fallback transitions so far.
	Fallbacks int `json:"fallbacks_total"`
	// Ticks counts controller ticks so far.
	Ticks int `json:"ticks"`
	// TickMs and HorizonMs echo the policy in milliseconds.
	TickMs float64 `json:"tick_ms"`
	// HorizonMs is the forecast look-ahead in milliseconds.
	HorizonMs float64 `json:"horizon_ms"`
	// Functions lists per-function forecasts in first-seen order.
	Functions []FunctionForecast `json:"functions"`
}

// Snapshot returns the state computed by the most recent Tick (zero
// before the first).
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.last
	if s.Mode == "" {
		s.Mode = c.mode.String()
		s.TickMs = float64(c.pol.Tick) / float64(time.Millisecond)
		s.HorizonMs = float64(c.pol.Horizon) / float64(time.Millisecond)
	}
	if s.Functions == nil {
		s.Functions = []FunctionForecast{}
	}
	return s
}

// Metric names the forecast controller owns.
const (
	metricTarget     = "microfaas_forecast_workers_target"
	metricErrRatio   = "microfaas_forecast_error_ratio"
	metricPredictive = "microfaas_forecast_predictive_mode"
	metricFallbacks  = "microfaas_forecast_fallbacks_total"
	metricRateAhead  = "microfaas_forecast_rate_ahead_per_s"
)

// ctlMetrics holds the controller's metric handles; every handle no-ops
// on nil so the zero value is the disabled-instrumentation path.
type ctlMetrics struct {
	target     *telemetry.Gauge
	errRatio   *telemetry.Gauge
	predictive *telemetry.Gauge
	fallbacks  *telemetry.Counter
	rateAhead  *telemetry.Family // label function: forecast rate
}

// initTelemetry pre-creates the controller's cluster-level series.
func (c *Controller) initTelemetry(tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	reg := tel.Registry()
	c.m = ctlMetrics{
		target: reg.Gauge(metricTarget,
			"Warm-pool worker target from the latest forecast tick (nodes)."),
		errRatio: reg.Gauge(metricErrRatio,
			"Rate-weighted smoothed forecast error ratio (sMAPE scale, 0-2)."),
		predictive: reg.Gauge(metricPredictive,
			"1 while the controller is in predictive mode, 0 during reactive fallback."),
		fallbacks: reg.Counter(metricFallbacks,
			"Predictive-to-fallback transitions caused by forecast error."),
		rateAhead: reg.GaugeFamily(metricRateAhead,
			"Forecast arrival rate at now+horizon per function (per second).", "function"),
	}
}

// noteRatesLocked refreshes the per-function forecast-rate gauges,
// creating them lazily in first-seen order. Caller holds c.mu.
func (c *Controller) noteRatesLocked(fns []FunctionForecast) {
	for _, f := range fns {
		c.m.rateAhead.Gauge(f.Function).Set(f.RateAhead)
	}
}

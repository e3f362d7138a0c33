package experiments

import (
	"fmt"
	"io"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/core"
	"microfaas/internal/forecast"
	"microfaas/internal/model"
	"microfaas/internal/power"
	"microfaas/internal/powermgr"
	"microfaas/internal/replay"
	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
	"microfaas/internal/tsdb"
)

// PowerMgmt measures what the dynamic power manager buys over the static
// power policies. At each utilization level it replays the same diurnal
// arrival trace into three otherwise-identical MicroFaaS clusters:
//
//   - per-job: the paper's policy — power-cycle around every invocation;
//   - always-on: the conventional serverless stance — boot once, idle warm
//     forever (the DisableReboot ablation);
//   - managed: the power manager — wake-on-demand, idle power-down, and
//     the energy-aware assignment policy packing load onto powered nodes;
//   - predictive (optional, Predict): managed plus the forecast
//     controller steering the manager's warm floor from the arrival-rate
//     series — pre-waking ahead of the diurnal ramp, pre-sleeping surplus
//     nodes ahead of the trough instead of waiting out the idle timeout.
//
// The headline number is J/function; the savings column is the managed
// cluster's reduction versus always-on at the same load. The lower the
// utilization, the more idle wattage there is to reclaim.
type PowerMgmtResult struct {
	// Day is the replayed trace length (virtual time).
	Day time.Duration
	// IdleTimeout is the managed arms' idle power-down timeout.
	IdleTimeout time.Duration
	Levels      []PowerMgmtLevel
}

// PowerMgmtLevel is one utilization point: the same trace through all
// three power policies.
type PowerMgmtLevel struct {
	// Utilization is the offered load as a fraction of cluster capacity;
	// RatePerMin the resulting mean arrival rate; Invocations the trace
	// size.
	Utilization float64
	RatePerMin  float64
	Invocations int

	PerJob, AlwaysOn, Managed PowerMgmtArm

	// Predictive is the forecast-steered arm; its zero value (empty Name)
	// means PowerMgmtConfig.Predict was off and the arm did not run.
	Predictive PowerMgmtArm

	// SavingsVsAlwaysOn is 1 − managed/always-on in J/function (the
	// fraction of the always-on energy bill the manager reclaims);
	// SavingsVsPerJob is the same against the per-job power cycle.
	SavingsVsAlwaysOn float64
	SavingsVsPerJob   float64
	// SavingsPredictive is 1 − predictive/always-on in J/function (zero
	// when the predictive arm did not run).
	SavingsPredictive float64
}

// arms lists the level's populated arms in display order.
func (lv PowerMgmtLevel) arms() []PowerMgmtArm {
	out := []PowerMgmtArm{lv.PerJob, lv.AlwaysOn, lv.Managed}
	if lv.Predictive.Name != "" {
		out = append(out, lv.Predictive)
	}
	return out
}

// PowerMgmtArm is one cluster's replay of the level's trace.
type PowerMgmtArm struct {
	// Name is "per-job", "always-on", or "managed".
	Name      string
	Completed int
	// JoulesPer is whole-cluster metered energy per completed function (J);
	// MeanPowerW the cluster's mean draw over the run (W).
	JoulesPer  float64
	MeanPowerW float64
	// MeanLatency includes queueing (and, for managed, any wake boots the
	// queue wait absorbed); P99Latency is the same distribution's 99th
	// percentile — the number wake-boot stalls show up in first.
	MeanLatency time.Duration
	P99Latency  time.Duration
	// ForecastError is the controller's final smoothed sMAPE-style error
	// in [0,2] (predictive arm only; see forecast.Predictor — halve it
	// for a rough MAPE reading). Fallbacks counts predictive→reactive
	// mode reversions over the trace.
	ForecastError float64
	Fallbacks     int
	// PowerOns counts Off→powered transitions in the GPIO audit log —
	// PWR_BUT presses. Per-job pays one per invocation; managed pays one
	// per wake.
	PowerOns int
	// Alerts is the SLO alert timeline over the diurnal trace. Non-nil
	// exactly when the run had SLO rules.
	Alerts []tsdb.Event
}

// PowerMgmtConfig sizes the experiment.
type PowerMgmtConfig struct {
	// Levels are the utilization points (fractions of cluster capacity;
	// default 0.1, 0.3, 0.6).
	Levels []float64
	// Day is the trace length (default 2 h of virtual time — long enough
	// for the diurnal shape to matter, short enough to fan out widely).
	Day time.Duration
	// RunConfig derives each level's trace, seeds every arm's sim and
	// bounds the pool all levels × arms fan through.
	RunConfig
	// SLO, when set, enables telemetry plus an embedded time-series
	// store sampling every powerMgmtScrapeEvery of virtual time and
	// reports each arm's alert timeline across the diurnal trace. Nil
	// keeps the run byte-identical to an unobserved one.
	SLO []tsdb.Rule
	// Predict adds the fourth, forecast-steered arm to every level. Off
	// (the default) keeps the three-arm run byte-identical to runs from
	// before the predictor existed.
	Predict bool
}

// The experiment's fixed cadences: the managed arms' idle power-down
// timeout, and the scrape (and forecast tick) cadence of an observed arm —
// the unsharded sim has no aggregator tick to piggyback on, so scrapes are
// pre-scheduled across the trace.
const (
	powerMgmtIdle        = 15 * time.Second
	powerMgmtScrapeEvery = 5 * time.Second
)

// PowerMgmt runs the three-way power-policy comparison across the
// configured utilization levels.
func PowerMgmt(cfg PowerMgmtConfig) (PowerMgmtResult, error) {
	levels := cfg.Levels
	if len(levels) == 0 {
		levels = []float64{0.1, 0.3, 0.6}
	}
	day := cfg.Day
	if day <= 0 {
		day = 2 * time.Hour
	}
	capacity := model.ClusterThroughput(model.SBCCount, model.ARM, model.DefaultWorkerLink(model.ARM))
	var fns []string
	for _, f := range model.Functions() {
		fns = append(fns, f.Name)
	}
	// Generate each level's trace serially (cheap), then fan the expensive
	// replays — len(levels)×3 day-long sims — through the bounded pool.
	res := PowerMgmtResult{Day: day, IdleTimeout: powerMgmtIdle, Levels: make([]PowerMgmtLevel, len(levels))}
	scheds := make([]replay.Schedule, len(levels))
	for i, u := range levels {
		rate := u * capacity
		sched, err := replay.Diurnal(replay.DiurnalConfig{
			Duration:       day,
			BaseRatePerMin: 0.5 * rate,
			PeakRatePerMin: 1.5 * rate,
			Functions:      fns,
			Seed:           DeriveSeed(cfg.Seed, i),
		})
		if err != nil {
			return PowerMgmtResult{}, err
		}
		scheds[i] = sched
		res.Levels[i] = PowerMgmtLevel{
			Utilization: u,
			RatePerMin:  sched.Rate(),
			Invocations: len(sched),
		}
	}
	arms := []string{"per-job", "always-on", "managed"}
	if cfg.Predict {
		arms = append(arms, "predictive")
	}
	runs, err := RunParallel(Parallelism(cfg.Parallel), len(levels)*len(arms), func(i int) (PowerMgmtArm, error) {
		return runPowerArm(arms[i%len(arms)], scheds[i/len(arms)], day, cfg.Seed, cfg.SLO)
	})
	if err != nil {
		return PowerMgmtResult{}, err
	}
	for i := range levels {
		lv := &res.Levels[i]
		lv.PerJob, lv.AlwaysOn, lv.Managed = runs[i*len(arms)], runs[i*len(arms)+1], runs[i*len(arms)+2]
		if cfg.Predict {
			lv.Predictive = runs[i*len(arms)+3]
		}
		if lv.AlwaysOn.JoulesPer > 0 {
			lv.SavingsVsAlwaysOn = 1 - lv.Managed.JoulesPer/lv.AlwaysOn.JoulesPer
			if cfg.Predict {
				lv.SavingsPredictive = 1 - lv.Predictive.JoulesPer/lv.AlwaysOn.JoulesPer
			}
		}
		if lv.PerJob.JoulesPer > 0 {
			lv.SavingsVsPerJob = 1 - lv.Managed.JoulesPer/lv.PerJob.JoulesPer
		}
	}
	return res, nil
}

// runPowerArm replays one trace into one power-policy arm and summarizes
// its energy bill.
func runPowerArm(arm string, sched replay.Schedule, day time.Duration, seed int64, slo []tsdb.Rule) (PowerMgmtArm, error) {
	cfg := cluster.SimConfig{Seed: seed}
	predict := arm == "predictive"
	switch arm {
	case "always-on":
		cfg.DisableReboot = true
	case "managed", "predictive":
		cfg.Power = &powermgr.Policy{IdleTimeout: powerMgmtIdle}
		cfg.Policy = core.AssignEnergyAware
	}
	var store *tsdb.Store
	if slo != nil || predict {
		// The predictive arm needs telemetry regardless of SLO rules: the
		// store's arrival tracker is the forecaster's input signal.
		cfg.Telemetry = telemetry.New()
	}
	s, err := cluster.NewMicroFaaSSim(model.SBCCount, cfg)
	if err != nil {
		return PowerMgmtArm{}, err
	}
	var ctl *forecast.Controller
	if slo != nil || predict {
		store = tsdb.New(tsdb.Config{})
		if slo != nil {
			if err := store.SetRules(slo); err != nil {
				return PowerMgmtArm{}, err
			}
		}
		store.AddSource("", cfg.Telemetry.Registry())
		if predict {
			ctl, err = forecast.NewController(forecast.ControllerConfig{
				Store:   store,
				Manager: s.PowerMgr,
				Policy: forecast.Policy{
					Tick:       powerMgmtScrapeEvery,
					CycleTime:  model.MeanJobTime(model.ARM, model.DefaultWorkerLink(model.ARM)),
					Period:     day,
					MaxWorkers: model.SBCCount,
					Spare:      1,
				},
				Telemetry: cfg.Telemetry,
			})
			if err != nil {
				return PowerMgmtArm{}, err
			}
		}
		for t := powerMgmtScrapeEvery; t <= day; t += powerMgmtScrapeEvery {
			at := t
			s.Engine.At(at, func() {
				store.Scrape(at)
				if ctl != nil {
					ctl.Tick(at)
				}
			})
		}
	}
	if _, err := replay.Feed(core.SimRuntime{Engine: s.Engine}, s.Orch, sched); err != nil {
		return PowerMgmtArm{}, err
	}
	s.Engine.Run(day)
	s.Engine.RunAll() // drain the tail (and the managed arm's idle timers)

	sum := trace.Summarize(s.Orch.Collector())
	if sum.Completed == 0 {
		return PowerMgmtArm{}, fmt.Errorf("experiments: power-mgmt %s arm completed nothing", arm)
	}
	out := PowerMgmtArm{
		Name:        arm,
		Completed:   sum.Completed,
		MeanLatency: sum.MeanLatency,
		P99Latency:  sum.Percentile(99),
	}
	if ctl != nil {
		snap := ctl.Snapshot()
		out.ForecastError = snap.ErrorRatio
		out.Fallbacks = snap.Fallbacks
	}
	total := float64(s.Meter.TotalEnergy(s.Engine.Now()))
	out.JoulesPer = total / float64(out.Completed)
	out.MeanPowerW = total / s.Engine.Now().Seconds()
	for _, e := range s.GPIO.Events() {
		if e.From == power.Off {
			out.PowerOns++
		}
	}
	if store != nil {
		out.Alerts = store.AlertHistory()
		if out.Alerts == nil {
			out.Alerts = []tsdb.Event{}
		}
	}
	return out, nil
}

// WritePowerMgmt prints the power-management comparison.
func WritePowerMgmt(w io.Writer, r PowerMgmtResult) error {
	out := &printer{w: w}
	out.f("Power management: %v diurnal trace per level, %d-SBC cluster, idle timeout %v\n",
		r.Day, model.SBCCount, r.IdleTimeout)
	out.f("  %-5s %-10s %10s %11s %10s %12s %9s %8s\n",
		"util", "arm", "completed", "J/function", "mean-W", "mean-latency", "power-ons", "savings")
	for _, lv := range r.Levels {
		for _, arm := range lv.arms() {
			savings := ""
			switch arm.Name {
			case "managed":
				savings = fmt.Sprintf("%.1f%%", 100*lv.SavingsVsAlwaysOn)
			case "predictive":
				savings = fmt.Sprintf("%.1f%%", 100*lv.SavingsPredictive)
			}
			out.f("  %-5.0f%% %-9s %10d %11.2f %10.3f %12s %9d %8s\n",
				100*lv.Utilization, arm.Name, arm.Completed, arm.JoulesPer, arm.MeanPowerW,
				arm.MeanLatency.Round(time.Millisecond), arm.PowerOns, savings)
		}
	}
	for _, lv := range r.Levels {
		p := lv.Predictive
		if p.Name == "" {
			continue
		}
		out.f("  %.0f%% predictive: p99 %s vs managed %s, forecast error %.3f (~%.1f%% MAPE), fallbacks %d\n",
			100*lv.Utilization, p.P99Latency.Round(time.Millisecond),
			lv.Managed.P99Latency.Round(time.Millisecond),
			p.ForecastError, 50*p.ForecastError, p.Fallbacks)
	}
	for _, lv := range r.Levels {
		for _, arm := range lv.arms() {
			if arm.Alerts == nil {
				continue
			}
			name := fmt.Sprintf("%.0f%% %s", 100*lv.Utilization, arm.Name)
			if err := WriteAlertTimeline(w, name, arm.Alerts); err != nil {
				return err
			}
		}
	}
	return out.err
}

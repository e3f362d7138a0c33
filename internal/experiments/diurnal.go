package experiments

import (
	"fmt"
	"io"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/core"
	"microfaas/internal/model"
	"microfaas/internal/replay"
	"microfaas/internal/trace"
)

// Diurnal replays one synthetic day — a non-homogeneous Poisson trace that
// troughs overnight and peaks at noon — into both matched clusters and
// compares their daily energy bills. It is the cost-transparency argument
// of Sec III-c played out over a realistic demand curve: the MicroFaaS
// bill tracks the work, the conventional bill mostly tracks the clock.
type DiurnalResult struct {
	// Invocations in the day's trace and its mean/peak rates.
	Invocations  int
	MeanPerMin   float64
	PeakPerMin   float64
	TroughPerMin float64

	// Per cluster: completions, total energy (kWh), J/function, and mean
	// power over the day.
	MF, Conv DiurnalClusterResult
}

// DiurnalClusterResult is one cluster's day.
type DiurnalClusterResult struct {
	Completed  int
	KWh        float64
	JoulesPer  float64
	MeanPowerW float64
	// MeanLatency includes queueing.
	MeanLatency time.Duration
}

// DiurnalConfig sizes the day.
type DiurnalConfig struct {
	// TroughPerMin/PeakPerMin shape the demand curve. Defaults: 10 and
	// 180 func/min (peak ≈90 % of matched capacity).
	TroughPerMin, PeakPerMin float64
	// Day length (default 24 h of virtual time).
	Day time.Duration
	// RunConfig seeds the demand trace and both clusters, and bounds the
	// pool running the two clusters' days concurrently.
	RunConfig
}

// Diurnal runs the day on both clusters.
func Diurnal(cfg DiurnalConfig) (DiurnalResult, error) {
	trough := cfg.TroughPerMin
	if trough == 0 {
		trough = 10
	}
	peak := cfg.PeakPerMin
	if peak == 0 {
		peak = 180
	}
	day := cfg.Day
	if day <= 0 {
		day = 24 * time.Hour
	}
	var fns []string
	for _, f := range model.Functions() {
		fns = append(fns, f.Name)
	}
	sched, err := replay.Diurnal(replay.DiurnalConfig{
		Duration:       day,
		BaseRatePerMin: trough,
		PeakRatePerMin: peak,
		Functions:      fns,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return DiurnalResult{}, err
	}
	res := DiurnalResult{
		Invocations:  len(sched),
		MeanPerMin:   sched.Rate(),
		PeakPerMin:   peak,
		TroughPerMin: trough,
	}
	// Both clusters replay the same (read-only) schedule on their own
	// engines; the two day-long sims are the experiment's dominant cost,
	// so they run concurrently.
	days, err := RunParallel(Parallelism(cfg.Parallel), 2, func(i int) (DiurnalClusterResult, error) {
		return replayDay(i == 0, sched, day, cfg.Seed)
	})
	if err != nil {
		return DiurnalResult{}, err
	}
	res.MF, res.Conv = days[0], days[1]
	return res, nil
}

func replayDay(microfaas bool, sched replay.Schedule, day time.Duration, seed int64) (DiurnalClusterResult, error) {
	s, err := paperCluster(microfaas, cluster.SimConfig{Seed: seed})
	if err != nil {
		return DiurnalClusterResult{}, err
	}
	if _, err := replay.Feed(core.SimRuntime{Engine: s.Engine}, s.Orch, sched); err != nil {
		return DiurnalClusterResult{}, err
	}
	s.Engine.Run(day)
	s.Engine.RunAll() // drain the evening tail

	sum := trace.Summarize(s.Orch.Collector())
	if sum.Completed == 0 {
		return DiurnalClusterResult{}, fmt.Errorf("experiments: diurnal day completed nothing")
	}
	out := DiurnalClusterResult{Completed: sum.Completed, MeanLatency: sum.MeanLatency}
	total := float64(s.Meter.TotalEnergy(s.Engine.Now()))
	out.KWh = total / 3.6e6
	out.JoulesPer = total / float64(out.Completed)
	out.MeanPowerW = total / s.Engine.Now().Seconds()
	return out, nil
}

// WriteDiurnal prints the day-in-the-life comparison.
func WriteDiurnal(w io.Writer, r DiurnalResult) error {
	_, err := fmt.Fprintf(w, `Diurnal day: %d invocations (trough %.0f, peak %.0f, mean %.1f func/min)
  %-14s %10s %10s %12s %12s
  %-14s %10d %9.3f %11.2f %12s
  %-14s %10d %9.3f %11.2f %12s
  daily energy ratio (conventional/MicroFaaS): %.1fx
`,
		r.Invocations, r.TroughPerMin, r.PeakPerMin, r.MeanPerMin,
		"cluster", "completed", "kWh/day", "J/function", "mean-latency",
		"microfaas", r.MF.Completed, r.MF.KWh, r.MF.JoulesPer, r.MF.MeanLatency.Round(time.Millisecond),
		"conventional", r.Conv.Completed, r.Conv.KWh, r.Conv.JoulesPer, r.Conv.MeanLatency.Round(time.Millisecond),
		r.Conv.KWh/r.MF.KWh)
	return err
}

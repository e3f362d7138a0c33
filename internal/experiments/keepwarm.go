package experiments

import (
	"fmt"
	"io"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/model"
	"microfaas/internal/node"
)

// KeepWarm quantifies the warm-pool trade the paper's design refuses
// (Sec III-a argues for reboot-between-jobs isolation; conventional FaaS
// platforms instead keep workers warm to cut cold-start latency). The
// experiment drives the MicroFaaS cluster with the paper's open arrival
// process under several keep-warm windows and measures mean latency,
// energy per function, and the warm-start fraction.
//
// KeepWarm > 0 sacrifices the clean-environment guarantee for every
// warm-started job — the point of the experiment is to price that
// guarantee in latency and joules.
type KeepWarmPoint struct {
	// Window is the keep-warm duration (0 = the paper's policy).
	Window time.Duration
	// MeanLatency and P95Latency are end-to-end (queueing included).
	MeanLatency, P95Latency time.Duration
	// JoulesPerFunc is metered energy over completions.
	JoulesPerFunc float64
	// WarmFraction is the share of jobs that skipped the boot.
	WarmFraction float64
}

// KeepWarmConfig sizes the experiment.
type KeepWarmConfig struct {
	// Windows to test; default 0, 5s, 30s, 2m, ∞ (no-reboot).
	Windows []time.Duration
	// LoadFraction of cluster capacity to offer (default 0.5).
	LoadFraction float64
	// Duration is virtual observation time (default 20 min).
	Duration time.Duration
	// RunConfig seeds every window's cluster and bounds the pool fanning
	// windows across cores.
	RunConfig
}

// KeepWarm runs the sweep on the 10-SBC MicroFaaS cluster.
func KeepWarm(cfg KeepWarmConfig) ([]KeepWarmPoint, error) {
	windows := cfg.Windows
	if windows == nil {
		windows = []time.Duration{0, 5 * time.Second, 30 * time.Second, 2 * time.Minute}
	}
	load := cfg.LoadFraction
	if load == 0 {
		load = 0.5
	}
	if load <= 0 || load >= 1 {
		return nil, fmt.Errorf("experiments: load fraction %v outside (0,1)", load)
	}
	duration := cfg.Duration
	if duration <= 0 {
		duration = 20 * time.Minute
	}
	return RunParallel(Parallelism(cfg.Parallel), len(windows), func(i int) (KeepWarmPoint, error) {
		return runKeepWarm(windows[i], load, duration, cfg.Seed)
	})
}

func runKeepWarm(window time.Duration, load float64, duration time.Duration, seed int64) (KeepWarmPoint, error) {
	s, err := cluster.NewMicroFaaSSim(model.SBCCount, cluster.SimConfig{Seed: seed, BoardConfig: node.BoardConfig{KeepWarm: window}})
	if err != nil {
		return KeepWarmPoint{}, err
	}
	sum, err := openLoad(s, load*model.PaperSBCThroughput/60, duration)
	if err != nil {
		return KeepWarmPoint{}, err
	}
	cold, warm := 0, 0
	for _, w := range s.Workers {
		cold += w.ColdStarts()
		warm += w.WarmStarts()
	}
	return KeepWarmPoint{
		Window:        window,
		MeanLatency:   sum.MeanLatency,
		P95Latency:    sum.Percentile(95),
		JoulesPerFunc: float64(s.Meter.TotalEnergy(s.Engine.Now())) / float64(sum.Completed),
		WarmFraction:  float64(warm) / float64(cold+warm),
	}, nil
}

// WriteKeepWarm prints the sweep.
func WriteKeepWarm(w io.Writer, pts []KeepWarmPoint) error {
	out := &printer{w: w}
	out.f("Keep-warm sweep (10 SBCs, 50%% load): pricing the reboot-isolation guarantee\n%-10s %12s %12s %10s %10s\n",
		"window", "mean-lat", "p95-lat", "J/func", "warm-%")
	for _, p := range pts {
		label := p.Window.String()
		if p.Window == 0 {
			label = "off(paper)"
		}
		out.f("%-10s %12s %12s %10.2f %9.1f%%\n",
			label,
			p.MeanLatency.Round(time.Millisecond), p.P95Latency.Round(time.Millisecond),
			p.JoulesPerFunc, p.WarmFraction*100)
	}
	out.f("warm starts skip the 1.51 s boot (lower latency) but forfeit the clean-\nenvironment guarantee and pay idle draw while parked (higher J at low warm-hit rates).\n")
	return out.err
}

package experiments

import (
	"io"
	"time"

	"microfaas/internal/bootos"
	"microfaas/internal/cluster"
	"microfaas/internal/model"
	"microfaas/internal/node"
)

// BootImpact connects Fig 1 to the cluster-level results: for every stage
// of the worker-OS development timeline, it runs the 10-SBC MicroFaaS
// cluster with that stage's boot time and measures throughput and energy
// per function. It answers "what did each OS optimization buy?" — with the
// baseline 27.5 s boot the reboot-per-job architecture is hopeless
// (~2 func/min/node), and each optimization claws capacity back until the
// final 1.51 s boot reaches the paper's 200.6 func/min.
type BootImpactRow struct {
	// Stage label from Fig 1 ("baseline", "A: ...", ...).
	Stage string
	// Boot is the stage's wall-clock boot time.
	Boot time.Duration
	// ThroughputPerMin and JoulesPerFunc for the 10-SBC cluster rebooting
	// into this OS build on every job.
	ThroughputPerMin float64
	JoulesPerFunc    float64
}

// BootImpactConfig sizes the runs.
type BootImpactConfig struct {
	// InvocationsPerFunction per stage (default 10 — the slow early stages
	// make each job cycle tens of seconds).
	InvocationsPerFunction int
	// RunConfig seeds every stage's cluster and bounds the pool fanning
	// stages across cores.
	RunConfig
}

// BootImpact sweeps the Fig 1 development stages.
func BootImpact(cfg BootImpactConfig) ([]BootImpactRow, error) {
	inv := cfg.InvocationsPerFunction
	if inv <= 0 {
		inv = 10
	}
	stages := bootos.Timeline(bootos.ARM)
	return RunParallel(Parallelism(cfg.Parallel), len(stages), func(i int) (BootImpactRow, error) {
		stage := stages[i]
		boot := stage.Profile.RealTime()
		s, err := cluster.NewMicroFaaSSim(model.SBCCount, cluster.SimConfig{
			Seed:        cfg.Seed,
			BoardConfig: node.BoardConfig{BootTime: boot},
		})
		if err != nil {
			return BootImpactRow{}, err
		}
		if _, err := s.RunSuite(inv, nil); err != nil {
			return BootImpactRow{}, err
		}
		st := s.Stats()
		return BootImpactRow{
			Stage:            stage.Label,
			Boot:             boot,
			ThroughputPerMin: st.ThroughputPerMin,
			JoulesPerFunc:    st.JoulesPerFunction,
		}, nil
	})
}

// WriteBootImpact prints the sweep.
func WriteBootImpact(w io.Writer, rows []BootImpactRow) error {
	out := &printer{w: w}
	out.f("Boot impact: cluster-level value of each Fig 1 OS optimization (10 SBCs)\n%-46s %8s %12s %10s\n",
		"stage", "boot", "func/min", "J/func")
	for _, r := range rows {
		out.f("%-46s %7.2fs %12.1f %10.2f\n",
			r.Stage, r.Boot.Seconds(), r.ThroughputPerMin, r.JoulesPerFunc)
	}
	first, last := rows[0], rows[len(rows)-1]
	out.f("the OS work bought %.1fx throughput and %.1fx energy efficiency\n(reboot-per-job is only viable because the boot is fast — Sec III-a)\n",
		last.ThroughputPerMin/first.ThroughputPerMin,
		first.JoulesPerFunc/last.JoulesPerFunc)
	return out.err
}

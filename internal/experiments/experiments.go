// Package experiments regenerates every table and figure in the paper's
// evaluation (Sec V), plus the ablations DESIGN.md calls out. Each
// experiment has a structured-result function (used by the benchmarks and
// tests) and a Write* helper that prints rows the way the paper reports
// them (used by cmd/microfaas-sim).
package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"microfaas/internal/bootos"
	"microfaas/internal/cluster"
	"microfaas/internal/model"
	"microfaas/internal/tco"
	"microfaas/internal/trace"
)

// ms renders a duration in fractional milliseconds for report rows.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// printer formats onto w and keeps the first write error, so a renderer
// checks once, when it returns, instead of after every line.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) f(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// --- Fig 1: worker-OS boot time through development stages ---

// Fig1Row is one development stage's boot times on both platforms.
type Fig1Row struct {
	Label           string
	ARMReal, ARMCPU time.Duration
	X86Real, X86CPU time.Duration
}

// Fig1 returns the boot-time development timeline (Sec IV-A, Fig 1).
func Fig1() []Fig1Row {
	arm := bootos.Timeline(bootos.ARM)
	x86 := bootos.Timeline(bootos.X86)
	rows := make([]Fig1Row, len(arm))
	for i := range arm {
		rows[i] = Fig1Row{
			Label:   arm[i].Label,
			ARMReal: arm[i].Profile.RealTime(),
			ARMCPU:  arm[i].Profile.CPUTime(),
			X86Real: x86[i].Profile.RealTime(),
			X86CPU:  x86[i].Profile.CPUTime(),
		}
	}
	return rows
}

// WriteFig1 prints the Fig 1 series.
func WriteFig1(w io.Writer) error {
	out := &printer{w: w}
	out.f("Fig 1: worker OS boot time by development stage\n%-45s %10s %10s %10s %10s\n",
		"stage", "arm-real", "arm-cpu", "x86-real", "x86-cpu")
	for _, r := range Fig1() {
		out.f("%-45s %9.2fs %9.2fs %9.2fs %9.2fs\n",
			r.Label, r.ARMReal.Seconds(), r.ARMCPU.Seconds(),
			r.X86Real.Seconds(), r.X86CPU.Seconds())
	}
	return out.err
}

// --- Fig 3: per-function runtime split (Working vs Overhead) ---

// Fig3Row is one function's mean runtime split on both clusters.
type Fig3Row struct {
	Function string
	// MicroFaaS (10 SBCs) and Conventional (6 VMs) means.
	MFWorking, MFOverhead     time.Duration
	ConvWorking, ConvOverhead time.Duration
	// SpeedRatio is conventional total / MicroFaaS total: >1 means
	// MicroFaaS is faster, >0.5 means "more than half the speed".
	SpeedRatio float64
}

// Fig3Config sizes the experiment. The paper issues 1,000 invocations per
// function; sim runs accept smaller counts for speed.
type Fig3Config struct {
	InvocationsPerFunction int
	// RunConfig seeds both clusters and bounds the pool running them
	// concurrently.
	RunConfig
}

// paperCluster builds one side of the paper's throughput-matched testbed:
// the 10-SBC MicroFaaS cluster or the 6-VM rack server.
func paperCluster(microfaas bool, cfg cluster.SimConfig) (*cluster.Sim, error) {
	if microfaas {
		return cluster.NewMicroFaaSSim(model.SBCCount, cfg)
	}
	return cluster.NewConventionalSim(model.VMCount, cfg)
}

// paperPair drains the suite (default 100 invocations per function) on
// both clusters, with the given function models (nil = the calibrated
// ones). They are independent sims, so they run as two tasks on the
// parallel runner.
func paperPair(invocations int, run RunConfig, specs []model.FunctionSpec) (mf, conv *cluster.Sim, err error) {
	if invocations <= 0 {
		invocations = 100
	}
	cfg := cluster.SimConfig{Seed: run.Seed, Specs: specs}
	sims, err := RunParallel(Parallelism(run.Parallel), 2, func(i int) (*cluster.Sim, error) {
		s, err := paperCluster(i == 0, cfg)
		if err != nil {
			return nil, err
		}
		_, err = s.RunSuite(invocations, nil)
		return s, err
	})
	if err != nil {
		return nil, nil, err
	}
	return sims[0], sims[1], nil
}

// Fig3 runs both simulated clusters through the suite and reports the
// per-function runtime split.
func Fig3(cfg Fig3Config) ([]Fig3Row, error) {
	mf, conv, err := paperPair(cfg.InvocationsPerFunction, cfg.RunConfig, nil)
	if err != nil {
		return nil, err
	}
	return fig3Rows(mf.Orch.Collector(), conv.Orch.Collector()), nil
}

func fig3Rows(mf, conv *trace.Collector) []Fig3Row {
	convStats := map[string]trace.FunctionStats{}
	for _, st := range conv.ByFunction() {
		convStats[st.Function] = st
	}
	var rows []Fig3Row
	for _, st := range mf.ByFunction() {
		cv := convStats[st.Function]
		row := Fig3Row{
			Function:     st.Function,
			MFWorking:    st.MeanExec,
			MFOverhead:   st.MeanOverhead,
			ConvWorking:  cv.MeanExec,
			ConvOverhead: cv.MeanOverhead,
		}
		if st.MeanTotal > 0 {
			row.SpeedRatio = float64(cv.MeanTotal) / float64(st.MeanTotal)
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig3Counts summarizes the paper's Sec V statement: how many functions
// MicroFaaS runs faster, at more than half speed, and below half speed.
func Fig3Counts(rows []Fig3Row) (faster, atHalf, below int) {
	for _, r := range rows {
		switch {
		case r.SpeedRatio > 1:
			faster++
		case r.SpeedRatio > 0.5:
			atHalf++
		default:
			below++
		}
	}
	return
}

// WriteFig3 prints the Fig 3 table.
func WriteFig3(w io.Writer, rows []Fig3Row) error {
	out := &printer{w: w}
	out.f("Fig 3: mean runtime split (ms), MicroFaaS (10 SBCs) vs conventional (6 VMs)\n%-12s %12s %12s %12s %12s %8s\n",
		"function", "mf-working", "mf-overhead", "conv-working", "conv-ovh", "speed")
	for _, r := range rows {
		out.f("%-12s %12.1f %12.1f %12.1f %12.1f %7.2fx\n",
			r.Function, ms(r.MFWorking), ms(r.MFOverhead),
			ms(r.ConvWorking), ms(r.ConvOverhead), r.SpeedRatio)
	}
	faster, atHalf, below := Fig3Counts(rows)
	out.f("MicroFaaS faster: %d | >half speed: %d | <half speed: %d (paper: 4 / 9 / 4)\n",
		faster, atHalf, below)
	return out.err
}

// --- Fig 4: conventional efficiency & throughput vs VM count ---

// Fig4Point is one VM-count sample.
type Fig4Point struct {
	VMs              int
	ThroughputPerMin float64
	JoulesPerFunc    float64
}

// Fig4Result is the sweep plus the MicroFaaS reference line.
type Fig4Result struct {
	Points []Fig4Point
	// MicroFaaSJoules is the 10-SBC cluster's J/function reference.
	MicroFaaSJoules float64
	// PeakVMs/PeakJoules locate the conventional cluster's best efficiency.
	PeakVMs    int
	PeakJoules float64
}

// Fig4Config sizes the sweep.
type Fig4Config struct {
	MaxVMs    int // default 24
	JobsPerVM int // default 60
	// RunConfig seeds every sweep point and bounds the pool fanning them
	// across cores.
	RunConfig
}

// Fig4 sweeps the number of VMs on the rack server, measuring throughput
// and energy per function, and computes the MicroFaaS reference.
func Fig4(cfg Fig4Config) (Fig4Result, error) {
	maxVMs := cfg.MaxVMs
	if maxVMs <= 0 {
		maxVMs = 24
	}
	jobsPerVM := cfg.JobsPerVM
	if jobsPerVM <= 0 {
		jobsPerVM = 150
	}
	// Task i < maxVMs is the (i+1)-VM sweep point; the last task is the
	// MicroFaaS reference run. Points merge in index order and the peak is
	// found after the merge, so parallel and serial sweeps agree exactly.
	stats, err := RunParallel(Parallelism(cfg.Parallel), maxVMs+1, func(i int) (cluster.SuiteStats, error) {
		if i == maxVMs {
			mf, err := cluster.NewMicroFaaSSim(model.SBCCount, cluster.SimConfig{Seed: cfg.Seed})
			if err != nil {
				return cluster.SuiteStats{}, err
			}
			if _, err := mf.RunSuite(40, nil); err != nil {
				return cluster.SuiteStats{}, err
			}
			return mf.Stats(), nil
		}
		vms := i + 1
		s, err := cluster.NewConventionalSim(vms, cluster.SimConfig{Seed: cfg.Seed})
		if err != nil {
			return cluster.SuiteStats{}, err
		}
		// jobsPerVM invocations per worker, full suite mix.
		perFunction := vms * jobsPerVM / len(model.Functions())
		if perFunction < 1 {
			perFunction = 1
		}
		if _, err := s.RunSuite(perFunction, nil); err != nil {
			return cluster.SuiteStats{}, err
		}
		return s.Stats(), nil
	})
	if err != nil {
		return Fig4Result{}, err
	}
	var res Fig4Result
	res.PeakJoules = -1
	for i, st := range stats[:maxVMs] {
		vms := i + 1
		// Measured throughput: completions over makespan (captures the
		// saturation plateau, unlike per-worker cycle capacity).
		thpt := float64(st.Completed) / (st.MakespanS / 60)
		pt := Fig4Point{VMs: vms, ThroughputPerMin: thpt, JoulesPerFunc: st.JoulesPerFunction}
		res.Points = append(res.Points, pt)
		if res.PeakJoules < 0 || pt.JoulesPerFunc < res.PeakJoules {
			res.PeakJoules = pt.JoulesPerFunc
			res.PeakVMs = vms
		}
	}
	res.MicroFaaSJoules = stats[maxVMs].JoulesPerFunction
	return res, nil
}

// WriteFig4 prints the Fig 4 series.
func WriteFig4(w io.Writer, res Fig4Result) error {
	out := &printer{w: w}
	out.f("Fig 4: conventional cluster vs VM count (MicroFaaS reference: %.1f J/func)\n%-5s %16s %14s\n",
		res.MicroFaaSJoules, "vms", "func/min", "J/function")
	for _, p := range res.Points {
		marker := ""
		if p.VMs == model.VMCount {
			marker = "  <- throughput-matched configuration"
		}
		if p.VMs == res.PeakVMs {
			marker = "  <- peak efficiency"
		}
		out.f("%-5d %16.1f %14.1f%s\n",
			p.VMs, p.ThroughputPerMin, p.JoulesPerFunc, marker)
	}
	out.f("peak efficiency %.1f J/func at %d VMs (paper: 16.1 J/func at saturation)\n",
		res.PeakJoules, res.PeakVMs)
	return out.err
}

// --- Fig 5: energy-proportionality power sweep ---

// Fig5Point is cluster power with a given number of active workers.
type Fig5Point struct {
	ActiveWorkers     int
	MicroFaaSWatts    float64
	ConventionalWatts float64
}

// Fig5Config sizes the sweep.
type Fig5Config struct {
	MaxWorkers int // default 10 (the evaluation cluster size)
	// RunConfig seeds every sweep point and bounds the pool fanning them
	// across cores.
	RunConfig
}

// fig5Window is the virtual time each Fig 5 point averages power over.
const fig5Window = 2 * time.Minute

// Fig5 measures average cluster power while 0..MaxWorkers workers run
// continuously: the MicroFaaS cluster keeps its remaining nodes powered
// down, the conventional cluster keeps its remaining VMs idle on the
// always-on rack server.
func Fig5(cfg Fig5Config) ([]Fig5Point, error) {
	maxW := cfg.MaxWorkers
	if maxW <= 0 {
		maxW = model.SBCCount
	}
	// 2(maxW+1) independent runs: task 2n is the MicroFaaS cluster with n
	// busy workers, task 2n+1 the conventional one.
	watts, err := RunParallel(Parallelism(cfg.Parallel), 2*(maxW+1), func(i int) (float64, error) {
		return clusterPower(i%2 == 0, maxW, i/2, fig5Window, cfg.Seed)
	})
	if err != nil {
		return nil, err
	}
	out := make([]Fig5Point, 0, maxW+1)
	for n := 0; n <= maxW; n++ {
		out = append(out, Fig5Point{ActiveWorkers: n, MicroFaaSWatts: watts[2*n], ConventionalWatts: watts[2*n+1]})
	}
	return out, nil
}

// clusterPower runs a cluster of total workers with n kept busy for the
// window and returns mean power.
func clusterPower(microfaas bool, total, busy int, window time.Duration, seed int64) (float64, error) {
	var s *cluster.Sim
	var err error
	if microfaas {
		s, err = cluster.NewMicroFaaSSim(total, cluster.SimConfig{Seed: seed})
	} else {
		s, err = cluster.NewConventionalSim(total, cluster.SimConfig{Seed: seed})
	}
	if err != nil {
		return 0, err
	}
	// Enough queued work to keep each busy worker cycling past the window.
	ids := s.Orch.Workers()
	var shortest time.Duration = time.Hour
	link := model.DefaultWorkerLink(platformOf(microfaas))
	for _, f := range model.Functions() {
		if d := f.TotalTime(platformOf(microfaas), link); d < shortest {
			shortest = d
		}
	}
	jobs := int(window/shortest) + 4
	fns := model.Functions()
	for i := 0; i < busy; i++ {
		for j := 0; j < jobs; j++ {
			if _, err := s.Orch.SubmitTo(ids[i], fns[(i+j)%len(fns)].Name, nil); err != nil {
				return 0, err
			}
		}
	}
	s.Engine.Run(window)
	return float64(s.Meter.TotalEnergy(window)) / window.Seconds(), nil
}

func platformOf(microfaas bool) model.Platform {
	if microfaas {
		return model.ARM
	}
	return model.X86
}

// WriteFig5 prints the Fig 5 series.
func WriteFig5(w io.Writer, pts []Fig5Point) error {
	out := &printer{w: w}
	out.f("Fig 5: average cluster power vs active workers\n%-8s %18s %20s\n",
		"workers", "microfaas (W)", "conventional (W)")
	for _, p := range pts {
		out.f("%-8d %18.2f %20.2f\n",
			p.ActiveWorkers, p.MicroFaaSWatts, p.ConventionalWatts)
	}
	return out.err
}

// --- Headline: throughput-matched comparison (Sec V's key numbers) ---

// HeadlineResult collects the paper's headline measurements.
type HeadlineResult struct {
	SBCThroughputPerMin float64 // paper: 200.6
	VMThroughputPerMin  float64 // paper: 211.7
	MicroFaaSJoules     float64 // paper: 5.7
	ConventionalJoules  float64 // paper: 32.0
	EfficiencyGain      float64 // paper: 5.6x
}

// HeadlineConfig sizes the run (paper scale: 1,000 invocations/function).
type HeadlineConfig struct {
	InvocationsPerFunction int
	// RunConfig seeds both clusters and bounds the pool running them
	// concurrently.
	RunConfig
}

// Headline runs both throughput-matched clusters and reports the paper's
// headline metrics.
func Headline(cfg HeadlineConfig) (HeadlineResult, error) {
	mf, conv, err := paperPair(cfg.InvocationsPerFunction, cfg.RunConfig, nil)
	if err != nil {
		return HeadlineResult{}, err
	}
	mfSt, convSt := mf.Stats(), conv.Stats()
	return HeadlineResult{
		SBCThroughputPerMin: mfSt.ThroughputPerMin,
		VMThroughputPerMin:  convSt.ThroughputPerMin,
		MicroFaaSJoules:     mfSt.JoulesPerFunction,
		ConventionalJoules:  convSt.JoulesPerFunction,
		EfficiencyGain:      convSt.JoulesPerFunction / mfSt.JoulesPerFunction,
	}, nil
}

// WriteHeadline prints the headline comparison.
func WriteHeadline(w io.Writer, r HeadlineResult) error {
	_, err := fmt.Fprintf(w, `Headline (Sec V) — measured (paper):
  10-SBC throughput:   %6.1f func/min  (200.6)
  6-VM throughput:     %6.1f func/min  (211.7)
  MicroFaaS energy:    %6.2f J/func    (5.7)
  Conventional energy: %6.2f J/func    (32.0)
  Efficiency gain:     %6.2fx          (5.6x)
`, r.SBCThroughputPerMin, r.VMThroughputPerMin, r.MicroFaaSJoules,
		r.ConventionalJoules, r.EfficiencyGain)
	return err
}

// --- Table II ---

// Table2 returns the TCO comparison.
func Table2() ([]tco.Comparison, error) { return tco.TableII() }

// WriteTable2 prints Table II in the paper's layout.
func WriteTable2(w io.Writer) error {
	out := &printer{w: w}
	rows, err := Table2()
	if err != nil {
		return err
	}
	out.f("Table II: 5-year single-rack lifetime cost (USD)\n")
	out.f("%-10s %14s %14s %14s %14s\n",
		"expense", "ideal-conv", "ideal-mf", "real-conv", "real-mf")
	ideal, realistic := rows[0], rows[1]
	// The paper's Total row sums the rounded cells above it; do the same
	// so the printed table matches Table II digit-for-digit.
	r := math.Round
	lines := []struct {
		name           string
		ic, im, rc, rm float64
	}{
		{"Compute", r(ideal.Conventional.Compute), r(ideal.MicroFaaS.Compute), r(realistic.Conventional.Compute), r(realistic.MicroFaaS.Compute)},
		{"Network", r(ideal.Conventional.Network), r(ideal.MicroFaaS.Network), r(realistic.Conventional.Network), r(realistic.MicroFaaS.Network)},
		{"Energy", r(ideal.Conventional.Energy), r(ideal.MicroFaaS.Energy), r(realistic.Conventional.Energy), r(realistic.MicroFaaS.Energy)},
	}
	lines = append(lines, struct {
		name           string
		ic, im, rc, rm float64
	}{"Total",
		lines[0].ic + lines[1].ic + lines[2].ic,
		lines[0].im + lines[1].im + lines[2].im,
		lines[0].rc + lines[1].rc + lines[2].rc,
		lines[0].rm + lines[1].rm + lines[2].rm,
	})
	for _, l := range lines {
		out.f("%-10s %14.0f %14.0f %14.0f %14.0f\n",
			l.name, l.ic, l.im, l.rc, l.rm)
	}
	out.f("savings: %.1f%% (ideal), %.1f%% (realistic) — paper: 34.2%% / 32.5%%\n",
		ideal.Savings()*100, realistic.Savings()*100)
	return out.err
}

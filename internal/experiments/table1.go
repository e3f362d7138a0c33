package experiments

import (
	"io"

	"microfaas/internal/model"
)

// WriteTable1 reproduces Table I — the workload function catalog — from
// the calibrated model, annotated with each function's class, backing
// service, FunctionBench provenance (the paper's asterisk), and the
// calibrated compute times this repository assigns it.
func WriteTable1(w io.Writer) error {
	out := &printer{w: w}
	out.f("Table I: workload functions (17; * = adapted from / inspired by FunctionBench)\n%-13s %-14s %-9s %9s %9s  %s\n",
		"name", "class", "service", "arm-work", "x86-work", "description")
	for _, f := range model.Functions() {
		name := f.Name
		if f.FromFunctionBench {
			name += "*"
		}
		service := f.Service
		if service == "" {
			service = "-"
		}
		out.f("%-13s %-14s %-9s %8.2fs %8.2fs  %s\n",
			name, f.Class, service,
			f.WorkARM.Seconds(), f.WorkX86.Seconds(), f.Description)
	}
	return out.err
}

// WriteFig4CSV emits the Fig 4 sweep as CSV for plotting.
func WriteFig4CSV(w io.Writer, res Fig4Result) error {
	out := &printer{w: w}
	out.f("vms,throughput_per_min,joules_per_func,microfaas_ref_joules\n")
	for _, p := range res.Points {
		out.f("%d,%.3f,%.3f,%.3f\n",
			p.VMs, p.ThroughputPerMin, p.JoulesPerFunc, res.MicroFaaSJoules)
	}
	return out.err
}

// WriteFig5CSV emits the Fig 5 power sweep as CSV.
func WriteFig5CSV(w io.Writer, pts []Fig5Point) error {
	out := &printer{w: w}
	out.f("active_workers,microfaas_watts,conventional_watts\n")
	for _, p := range pts {
		out.f("%d,%.4f,%.4f\n",
			p.ActiveWorkers, p.MicroFaaSWatts, p.ConventionalWatts)
	}
	return out.err
}

// WriteFig3CSV emits the per-function runtime split as CSV.
func WriteFig3CSV(w io.Writer, rows []Fig3Row) error {
	out := &printer{w: w}
	out.f("function,mf_working_ms,mf_overhead_ms,conv_working_ms,conv_overhead_ms,speed_ratio\n")
	for _, r := range rows {
		out.f("%s,%.3f,%.3f,%.3f,%.3f,%.4f\n",
			r.Function, ms(r.MFWorking), ms(r.MFOverhead),
			ms(r.ConvWorking), ms(r.ConvOverhead), r.SpeedRatio)
	}
	return out.err
}

// WriteLoadSweepCSV emits the load sweep as CSV.
func WriteLoadSweepCSV(w io.Writer, pts []LoadSweepPoint) error {
	out := &printer{w: w}
	out.f("load_fraction,offered_per_min,mf_mean_latency_ms,mf_p95_latency_ms,mf_joules_per,conv_mean_latency_ms,conv_p95_latency_ms,conv_joules_per\n")
	for _, p := range pts {
		out.f("%.3f,%.3f,%.3f,%.3f,%.4f,%.3f,%.3f,%.4f\n",
			p.LoadFraction, p.OfferedPerMin,
			ms(p.MFMeanLatency), ms(p.MFP95Latency), p.MFJoulesPer,
			ms(p.ConvMeanLat), ms(p.ConvP95Lat), p.ConvJoulesPer)
	}
	return out.err
}

// WriteKeepWarmCSV emits the keep-warm sweep as CSV.
func WriteKeepWarmCSV(w io.Writer, pts []KeepWarmPoint) error {
	out := &printer{w: w}
	out.f("window_s,mean_latency_ms,p95_latency_ms,joules_per,warm_fraction\n")
	for _, p := range pts {
		out.f("%.3f,%.3f,%.3f,%.4f,%.4f\n",
			p.Window.Seconds(), ms(p.MeanLatency), ms(p.P95Latency),
			p.JoulesPerFunc, p.WarmFraction)
	}
	return out.err
}

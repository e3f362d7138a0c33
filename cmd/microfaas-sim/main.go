// Command microfaas-sim regenerates the paper's tables and figures from
// the calibrated cluster simulator:
//
//	microfaas-sim [flags] <experiment>
//
// `microfaas-sim -h` lists the experiments (internal/experiments.Suite),
// the flags each one reads, and every flag's default. -seed and -parallel
// apply to every experiment: output is deterministic per seed and
// byte-identical at any -parallel value. Every other flag is read by only
// some experiments, and setting one the chosen experiment does not read
// exits 2 rather than being silently dropped.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"microfaas/internal/experiments"
	"microfaas/internal/tsdb"
)

func main() {
	render, status := parse(os.Args[1:], os.Stderr)
	if render != nil {
		if err := render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "microfaas-sim:", err)
			status = 1
		}
	}
	os.Exit(status)
}

// parse turns the command line into the chosen experiment's renderer with
// its parameters bound. A nil renderer means there is nothing to run and
// the status says why: 0 after -h, 2 when the command line is wrong, with
// the reason already on stderr.
func parse(args []string, stderr io.Writer) (render func(io.Writer) error, status int) {
	var p experiments.Params
	fs := flag.NewFlagSet("microfaas-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&p.N, "n", 100, "invocations per function (paper: 1000)")
	fs.Int64Var(&p.Seed, "seed", 1, "simulation seed")
	fs.IntVar(&p.Parallel, "parallel", runtime.NumCPU(), "worker-pool size for independent sim instances (1 = serial; output is identical at any value)")
	fs.IntVar(&p.Shards, "shards", 0, "control-plane shard count (0 = the experiment default, 64)")
	fs.StringVar(&p.CSVPath, "csv", "", "write the MicroFaaS run's raw per-invocation trace (CSV) to this path")
	fs.StringVar(&p.PromPath, "prom", "", "write the MicroFaaS run's metrics snapshot (Prometheus text format) to this path")
	fs.StringVar(&p.TracePath, "trace", "", "write the MicroFaaS run's span dump (Chrome trace_event JSON) to this path")
	sloPath := fs.String("slo", "", "SLO burn-rate rule file (JSON); print alert timelines")
	fs.BoolVar(&p.Predict, "predict", false, "add the forecast-steered predictive arm")
	format := fs.String("format", "text", "output format: text or csv")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [flags] <experiment>\n\nexperiments (* = part of `all`; [flags it reads besides -seed and -parallel]):\n", fs.Name())
		experiments.WriteSuiteList(stderr)
		fmt.Fprintln(stderr, "\nflags:")
		fs.PrintDefaults()
	}
	fail := func(err error) (func(io.Writer) error, int) {
		fmt.Fprintln(stderr, "microfaas-sim:", err)
		return nil, 2
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, 0
		}
		return nil, 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return nil, 2
	}
	if *format != "text" && *format != "csv" {
		return fail(fmt.Errorf("unknown format %q", *format))
	}
	exp := experiments.Lookup(fs.Arg(0))
	if exp == nil {
		return fail(fmt.Errorf("unknown experiment %q (see -h)", fs.Arg(0)))
	}
	// Only flags set on the command line count: the first one the
	// experiment would silently ignore is an error.
	var ignored error
	fs.Visit(func(f *flag.Flag) {
		if ignored == nil {
			ignored = exp.CheckFlag(f.Name, f.Value.String())
		}
	})
	if ignored != nil {
		return fail(ignored)
	}
	if *sloPath != "" {
		rules, err := tsdb.LoadRules(*sloPath)
		if err != nil {
			return fail(err)
		}
		p.SLO = rules
	}
	chosen := exp.Text
	if *format == "csv" {
		chosen = exp.CSV
	}
	return func(w io.Writer) error { return chosen(w, p) }, 0
}

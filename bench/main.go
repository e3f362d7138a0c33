// Command bench is the repository's benchmark: five workloads — three
// through a real loopback socket into a live cluster, two through the
// sharded simulator — plus a per-layer ladder and a traced run. See
// README.md in this directory for what each workload and metric means.
//
// Run by the benchmark driver, one workload at a time:
//
//	bash bench/run.sh --workload live_floor --seed 1 --seconds 10 --trace 0
//
// or by hand with no --workload, which runs everything, prints every metric
// by name with its unit, and writes result.json and trace.json under -out:
//
//	bash bench/run.sh
//	bash bench/run.sh -compare a/result.json b/result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// runSeconds is the measurement length BENCHMARK.json's run_seconds names.
const runSeconds = 10

func main() {
	workload := flag.String("workload", "", "run this one workload and print the driver's result line (default: run everything)")
	seed := flag.Int64("seed", 1, "seed for request generation and the simulator")
	seconds := flag.Int("seconds", runSeconds, "seconds of timed measurement per live workload, split over five trials")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics (traced run and ladder)")
	out := flag.String("out", filepath.Join(".bench_build", "results"), "directory for result.json and the Chrome trace")
	compare := flag.Bool("compare", false, "compare two result files (given as arguments) against the bounds in -spec")
	trial := flag.Bool("trial", false, "run one trial of -workload in this process and print its report (what the benchmark starts for every trial)")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition, read by -compare")
	flag.Parse()

	c := defaultConfig(*seed, *seconds, *out)
	var err error
	switch {
	case *compare:
		err = runCompare(os.Stdout, *spec, flag.Args())
	case *seconds < 1:
		err = fmt.Errorf("-seconds must be at least 1")
	case *trial:
		var t trialReport
		if t, err = c.runTrial(*workload, *trace == 1); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(t)
		}
	default:
		if c.self, err = os.Executable(); err != nil {
			break
		}
		if *workload != "" {
			err = runOne(c, *workload, *trace == 1)
		} else {
			err = runAll(c)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// printMetrics lists a result's metrics by name with their units.
func printMetrics(res workloadResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s: attempted %d, failed %d (failed_share %g), outputs correct: %v, host.calib_ms %.3f\n",
		res.Workload, res.Attempted, res.Failed, res.FailedShare, res.Correct, summarize(res.CalibMS).Median)
	for _, n := range names {
		v := res.Metrics[n]
		line := fmt.Sprintf("  %-32s %14.4f %-8s", n, v.Value, v.Unit)
		if len(v.Trials) > 1 {
			line += fmt.Sprintf(" min %.4f max %.4f over %d", v.Min, v.Max, len(v.Trials))
		}
		if v.Samples > 0 {
			line += fmt.Sprintf(" [%d samples", v.Samples)
			if v.Beyond > 0 {
				line += fmt.Sprintf(", %d beyond", v.Beyond)
			}
			line += "]"
		}
		fmt.Println(line)
	}
	for _, note := range res.Notes {
		fmt.Println("  note:", note)
	}
}

// runOne is the driver's entry: one workload, then one JSON object as the
// last line of standard output.
func runOne(c config, name string, traced bool) error {
	var res workloadResult
	var err error
	if traced {
		res, err = c.perLayer(name, nil)
	} else {
		res, err = c.endToEnd(name)
	}
	if err != nil {
		return err
	}
	printMetrics(res)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for n, v := range res.Metrics {
		line.Metrics[n] = value{v.Value, v.Unit}
	}
	return json.NewEncoder(os.Stdout).Encode(line)
}

// environment is the result file's record of where and how it was made.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	Trials     int     `json:"trials"`
	WarmS      float64 `json:"warm_s"`
	WindowS    float64 `json:"window_s"`
}

func (c config) environment() environment {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return environment{
		Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: numClients, Seed: c.seed, Trials: c.trials, WarmS: c.warm.Seconds(), WindowS: c.window.Seconds(),
	}
}

// resultFile is what a full run writes and -compare reads. The traced
// trials' Chrome traces lie next to it, one trace_<workload>.json each.
type resultFile struct {
	Env      environment               `json:"env"`
	EndToEnd map[string]workloadResult `json:"end_to_end"`
	PerLayer map[string]workloadResult `json:"per_layer"`
}

// runAll runs every workload untraced, then the ladder once, then every
// workload's traced pass, and writes the result file.
func runAll(c config) error {
	file := resultFile{Env: c.environment(), EndToEnd: map[string]workloadResult{}, PerLayer: map[string]workloadResult{}}
	fmt.Printf("env: %+v\n", file.Env)
	ok := true
	for _, name := range c.workloadNames() {
		res, err := c.endToEnd(name)
		if err != nil {
			return err
		}
		printMetrics(res)
		file.EndToEnd[name] = res
		ok = ok && res.Correct && res.Failed == 0
	}
	ladder, err := runLadder(c.ladder, genSuite(c.seed, 17*15))
	if err != nil {
		return err
	}
	for _, name := range c.workloadNames() {
		res, err := c.perLayer(name, ladder)
		if err != nil {
			return err
		}
		fmt.Print("per-layer, ")
		printMetrics(res)
		file.PerLayer[name] = res
		ok = ok && res.Correct && res.Failed == 0
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(c.out, "result.json")
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s; Chrome traces are %s\n", path, filepath.Join(c.out, "trace_<workload>.json"))
	if !ok {
		return fmt.Errorf("a workload failed operations or its output check (see above)")
	}
	return nil
}

// writeTrace writes the spans a traced trial kept in memory.
func writeTrace(path, workload string, recorders []*spanRecorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, workload, recorders); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

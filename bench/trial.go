package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"microfaas"
)

// trialReport is everything one trial measured, already reduced to numbers
// so it can cross a pipe: the benchmark runs every trial in a process of
// its own. A Go process carries its heap size, its armed timers and its GC
// pacing from one trial into the next (the fifth in-process trial of
// live_floor saw a seventh of the first one's collections, and a p99 a
// quarter lower), so only a fresh process makes trials repeat.
type trialReport struct {
	Workload string   `json:"workload"`
	Correct  bool     `json:"correct"`
	Notes    []string `json:"notes,omitempty"`

	SetupS  float64 `json:"setup_s"`
	CalibMS float64 `json:"host_calib_ms"`
	// Attempted and Failed cover the set-up call, the output check, the
	// warm-up and the timed window; Completed only the timed window (for
	// a sim, jobs settled).
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Completed int `json:"completed"`
	// The timed window (for a sim, submit loop + Run): wall time, process
	// CPU, allocation counters, and live heap growth across it.
	ElapsedS   float64 `json:"elapsed_s"`
	CPUS       float64 `json:"cpu_s"`
	Mallocs    float64 `json:"mallocs"`
	AllocBytes float64 `json:"alloc_bytes"`
	GCs        float64 `json:"gcs"`
	RetainedB  float64 `json:"retained_b"`
	// Client-observed latency (for a sim, the virtual clock's).
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`
	P99Beyond int     `json:"p99_beyond"`
	Polls     int     `json:"polls"`

	// The observability stack as timed from outside (zero when off).
	ScrapeMS     float64 `json:"scrape_ms"`
	Scrapes      int     `json:"scrapes"`
	ScrapeAllocs float64 `json:"scrape_allocs"`
	Series       int     `json:"series"`
	RenderMS     float64 `json:"render_ms"`
	// Per-layer self times from the traced trial's spans (zero untraced).
	GatewaySelfUS float64 `json:"gateway_self_us"`
	CoreSelfUS    float64 `json:"core_self_us"`
	NodeCycleUS   float64 `json:"node_cycle_us"`
	Spans         int     `json:"spans"`
	// Sim only: the two timed phases, the unobserved twin's Run time on the
	// traced pass of an observed workload, and the simulator's outputs.
	SubmitS  float64                    `json:"submit_s"`
	RunS     float64                    `json:"run_s"`
	BareRunS float64                    `json:"bare_run_s"`
	Sim      *microfaas.ShardedSimStats `json:"sim,omitempty"`
}

func (t *trialReport) window(w window) {
	t.ElapsedS, t.CPUS = w.elapsed.Seconds(), w.cpu.Seconds()
	t.Mallocs, t.AllocBytes, t.GCs = float64(w.mem.mallocs), float64(w.mem.bytes), float64(w.mem.gcs)
}

func (t *trialReport) observability(scrapes []time.Duration, allocs float64, series int, render time.Duration) {
	if len(scrapes) > 0 {
		sort.Slice(scrapes, func(i, j int) bool { return scrapes[i] < scrapes[j] })
		med, _ := percentile(scrapes, 50)
		t.ScrapeMS, t.Scrapes = ms(med), len(scrapes)
	}
	t.ScrapeAllocs, t.Series, t.RenderMS = allocs, series, ms(render)
}

// runTrial runs one trial of the named workload in this process.
func (c config) runTrial(name string, traced bool) (trialReport, error) {
	traceTo := ""
	if traced && c.out != "" {
		traceTo = filepath.Join(c.out, "trace_"+name+".json")
	}
	for _, k := range liveKinds {
		if k.name == name {
			return runLiveTrial(k, c.seed, c.warm, c.window, traceTo)
		}
	}
	for _, k := range c.sims {
		if k.name == name {
			return runSimTrial(k, c.seed, traced)
		}
	}
	return trialReport{}, fmt.Errorf("unknown workload %q (have %v)", name, c.workloadNames())
}

// trial runs one trial in a child process when the config names this
// program's binary, and here otherwise (the tests).
func (c config) trial(name string, traced bool) (trialReport, error) {
	if c.self == "" {
		return c.runTrial(name, traced)
	}
	var t trialReport
	args := []string{"-trial", "-workload", name, "-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.Itoa(c.seconds), "-out", c.out}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(c.self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil { // Run waits for the child to end
		return t, fmt.Errorf("trial of %s: %w", name, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &t); err != nil {
		return t, fmt.Errorf("trial of %s: bad report: %w", name, err)
	}
	return t, nil
}

package main

import (
	"fmt"
	"runtime"
	"time"
)

// metricValue is one named number in a result: the median over the run's
// trials (or ladder repetitions), with min, max and the per-trial values
// beside it. Samples and Beyond describe a percentile: how many latencies
// it was taken from and how many lay beyond it, in the smallest trial.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Trials  []float64 `json:"trials"`
	Samples int       `json:"samples,omitempty"`
	Beyond  int       `json:"beyond,omitempty"`
}

func newMetric(unit string, vals []float64) metricValue {
	s := summarize(vals)
	return metricValue{Value: s.Median, Unit: unit, Min: s.Min, Max: s.Max, Trials: vals}
}

// workloadResult is what one workload reports: counts, the output check,
// and either the end-to-end metrics (untraced trials) or the per-layer
// metrics (traced pass plus ladder), never both from the same trials.
type workloadResult struct {
	Workload    string                 `json:"workload"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedShare float64                `json:"failed_share"`
	CalibMS     []float64              `json:"host_calib_ms"`
	Metrics     map[string]metricValue `json:"metrics"`
	Notes       []string               `json:"notes,omitempty"`
}

// add folds one trial's counts and output check into the result.
func (r *workloadResult) add(t trialReport) {
	r.Attempted += t.Attempted
	r.Failed += t.Failed
	r.Correct = r.Correct && t.Correct
	r.Notes = append(r.Notes, t.Notes...)
	r.CalibMS = append(r.CalibMS, t.CalibMS)
	if r.Attempted > 0 {
		r.FailedShare = float64(r.Failed) / float64(r.Attempted)
	}
}

// config sizes a run. defaultConfig is the benchmark; tests shrink it.
type config struct {
	seed         int64
	seconds      int
	trials       int
	warm, window time.Duration
	sims         []simKind
	ladder       ladderSizes
	// out is where a traced trial writes its Chrome trace ("" = nowhere).
	out string
	// self is this program's binary; when set, every trial runs in a fresh
	// process of it (see trialReport).
	self string
}

// defaultConfig splits seconds of measurement into five timed windows per
// live workload. The sim workloads are fixed-size runs — their exact
// outputs depend on the size — so seconds does not resize them.
func defaultConfig(seed int64, seconds int, out string) config {
	return config{
		seed:    seed,
		seconds: seconds,
		trials:  5,
		warm:    500 * time.Millisecond,
		window:  time.Duration(seconds) * time.Second / 5,
		sims:    simKinds,
		ladder:  ladderSizes{reps: 5, scale: 1},
		out:     out,
	}
}

// workloadNames lists every workload in report order.
func (c config) workloadNames() []string {
	var names []string
	for _, k := range liveKinds {
		names = append(names, k.name)
	}
	for _, k := range c.sims {
		names = append(names, k.name)
	}
	return names
}

// endToEnd runs a workload's untraced trials and reduces them to the
// end-to-end metrics: each is the median over trials.
func (c config) endToEnd(name string) (workloadResult, error) {
	res := workloadResult{Workload: name, Correct: true}
	var thr, p50, p99, cpu, retained, setup []float64
	var first trialReport
	samples, beyond := 0, 0 // behind the p99 of the trial with the thinnest tail
	for i := 0; i < c.trials; i++ {
		t, err := c.trial(name, false)
		if err != nil {
			return res, err
		}
		if t.Completed == 0 {
			return res, fmt.Errorf("%s: trial %d completed nothing", name, i)
		}
		res.add(t)
		if i == 0 {
			first = t
		}
		// The simulator is deterministic under a seed: every trial must
		// reproduce the first one's outputs exactly.
		if t.Sim != nil && *t.Sim != *first.Sim {
			res.Correct = false
			res.Notes = append(res.Notes, fmt.Sprintf("trial %d's simulated outputs differ from trial 0's", i))
		}
		if i == 0 || t.P99Beyond < beyond {
			samples, beyond = t.Completed, t.P99Beyond
		}
		n := float64(t.Completed)
		thr = append(thr, n/t.ElapsedS)
		p50 = append(p50, t.P50MS)
		p99 = append(p99, t.P99MS)
		cpu = append(cpu, t.CPUS*1e6/n)
		retained = append(retained, t.RetainedB/n)
		setup = append(setup, t.SetupS)
	}
	m99 := newMetric("ms", p99)
	if first.Sim == nil {
		// A live p99 is only as good as the samples beyond it.
		m99.Samples, m99.Beyond = samples, beyond
		if !resolved(beyond, minBeyond) {
			res.Notes = append(res.Notes, fmt.Sprintf("latency_p99_ms has only %d samples beyond it in its smallest trial (want %d)", m99.Beyond, minBeyond))
		}
	}
	res.Metrics = map[string]metricValue{
		"throughput_rps":     newMetric("req/s", thr),
		"latency_p50_ms":     newMetric("ms", p50),
		"latency_p99_ms":     m99,
		"cpu_us_per_req":     newMetric("us", cpu),
		"retained_b_per_req": newMetric("B", retained),
		"setup_s":            newMetric("s", setup),
	}
	return res, nil
}

func one(unit string, v float64) metricValue { return newMetric(unit, []float64{v}) }

func withSamples(v metricValue, n int) metricValue {
	v.Samples = n
	return v
}

// perLayer runs a workload's traced pass — for a live workload one
// untraced and one traced trial, for a sim one trial with its scrapes
// timed — and merges in the ladder (measured now unless one is supplied).
// A layer the workload does not exercise reports 0.
func (c config) perLayer(name string, ladder ladderResult) (workloadResult, error) {
	res := workloadResult{Workload: name, Correct: true}
	t, err := c.trial(name, true)
	if err != nil {
		return res, err
	}
	res.add(t)
	plain := t // a sim's traced pass changes nothing the sim does
	if t.Sim == nil {
		if plain, err = c.trial(name, false); err != nil {
			return res, err
		}
		res.add(plain)
	}
	if t.Completed == 0 || plain.Completed == 0 {
		return res, fmt.Errorf("%s: a trial completed nothing", name)
	}
	n := float64(plain.Completed)
	m := map[string]metricValue{
		"runtime.allocs_per_req": one("count", plain.Mallocs/n),
		"runtime.bytes_per_req":  one("B", plain.AllocBytes/n),
		"runtime.gc_per_kreq":    one("count", plain.GCs/n*1000),

		"gateway.self_us":          withSamples(one("us", t.GatewaySelfUS), t.Spans/3),
		"core.self_us":             withSamples(one("us", t.CoreSelfUS), t.Spans/3),
		"node.cycle_us":            withSamples(one("us", t.NodeCycleUS), t.Spans/3),
		"loadgen.polls_per_job":    one("count", float64(plain.Polls)/n),
		"loadgen.trace_overhead_x": one("x", 0),

		"tsdb.scrape_ms":              withSamples(one("ms", plain.ScrapeMS), plain.Scrapes),
		"tsdb.scrape_allocs":          one("count", plain.ScrapeAllocs),
		"tsdb.series":                 one("count", float64(plain.Series)),
		"telemetry.metrics_render_ms": one("ms", plain.RenderMS),

		"sim.submit_us_per_job":   one("us", t.SubmitS*1e6/n),
		"sim.run_us_per_job":      one("us", t.RunS*1e6/n),
		"sim.observed_overhead_x": one("x", 0),
		"shard.stolen_share":      one("ratio", 0),
		"joules_per_func":         one("J", 0),
		"func_per_min":            one("func/min", 0),
		"sim_p99_s":               one("s", 0),

		"host.nproc": one("count", float64(runtime.NumCPU())),
	}
	if t.Sim == nil {
		m["loadgen.trace_overhead_x"] = one("x", (float64(t.Completed)/t.ElapsedS)/(n/plain.ElapsedS))
	} else {
		m["shard.stolen_share"] = one("ratio", float64(t.Sim.Stolen)/n)
		m["joules_per_func"] = one("J", t.Sim.JoulesPerFunction)
		m["func_per_min"] = one("func/min", t.Sim.ThroughputPerMin)
		m["sim_p99_s"] = one("s", t.Sim.P99.Seconds())
		if t.BareRunS > 0 {
			m["sim.observed_overhead_x"] = one("x", t.RunS/t.BareRunS)
			res.Notes = append(res.Notes, fmt.Sprintf("sim.observed_overhead_x = %.1f us/job observed / %.1f us/job unobserved",
				t.RunS*1e6/n, t.BareRunS*1e6/n))
		}
	}
	if ladder == nil {
		if ladder, err = runLadder(c.ladder, genSuite(c.seed, 17*15)); err != nil {
			return res, err
		}
	}
	for name, v := range ladder {
		m[name] = v
	}
	m["host.calib_ms"] = newMetric("ms", res.CalibMS)
	res.Metrics = m
	return res, nil
}

package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/model"
	"microfaas/internal/trace"
)

// LoadSweep quantifies the energy-proportionality argument of Sec III-b
// under a realistic arrival process rather than saturation: both clusters
// receive the same Poisson-like open load (the paper's "job added to a
// random sampling of queues" process, Sec IV-D) at a fraction of their
// matched capacity, and we measure end-to-end latency (including queueing)
// and energy per function.
//
// The conventional cluster's rack server burns 60 W whether or not
// functions arrive, so its J/function explodes as load falls; the
// MicroFaaS cluster's nodes power down between jobs, so its J/function is
// nearly flat — this is the "nearly-linear energy-proportional computing"
// claim, measured.
type LoadSweepPoint struct {
	// LoadFraction is the offered load relative to matched capacity.
	LoadFraction float64
	// Offered and completed rates in func/min.
	OfferedPerMin float64

	// Per cluster: completions, mean and P95 end-to-end latency
	// (submission → result, including queue wait), and J/function.
	MFCompleted   int
	MFMeanLatency time.Duration
	MFP95Latency  time.Duration
	MFJoulesPer   float64
	ConvCompleted int
	ConvMeanLat   time.Duration
	ConvP95Lat    time.Duration
	ConvJoulesPer float64
}

// LoadSweepConfig sizes the sweep.
type LoadSweepConfig struct {
	// Fractions of matched capacity to offer (default 0.1..0.9).
	Fractions []float64
	// Window is the virtual observation time per point (default 20 min).
	Window time.Duration
	// RunConfig seeds every sweep point and bounds the pool fanning them
	// across cores.
	RunConfig
}

// loadSweepRun is one cluster's measurement at one offered load.
type loadSweepRun struct {
	trace.Summary
	joulesPer float64
}

// LoadSweep runs both clusters under each offered load.
func LoadSweep(cfg LoadSweepConfig) ([]LoadSweepPoint, error) {
	fractions := cfg.Fractions
	if fractions == nil {
		fractions = []float64{0.1, 0.25, 0.5, 0.75, 0.9}
	}
	window := cfg.Window
	if window <= 0 {
		window = 20 * time.Minute
	}
	// Validate every fraction before fanning out, so a bad config fails
	// fast instead of racing valid points against the error.
	for _, f := range fractions {
		if f <= 0 || f >= 1 {
			return nil, fmt.Errorf("experiments: load fraction %v outside (0,1)", f)
		}
	}
	// 2 tasks per fraction: task 2i is the MicroFaaS cluster at fraction
	// i, task 2i+1 the conventional one.
	runs, err := RunParallel(Parallelism(cfg.Parallel), 2*len(fractions), func(i int) (loadSweepRun, error) {
		// Offered rate: a fraction of the SLOWER cluster's capacity, so
		// both clusters face an identical, feasible open load.
		capacity := model.PaperSBCThroughput // func/min; the matched pair's min
		rate := fractions[i/2] * capacity / 60
		return runLoadPoint(i%2 == 0, rate, window, cfg.Seed)
	})
	if err != nil {
		return nil, err
	}
	out := make([]LoadSweepPoint, 0, len(fractions))
	for i, f := range fractions {
		mf, cv := runs[2*i], runs[2*i+1]
		rate := f * model.PaperSBCThroughput / 60
		out = append(out, LoadSweepPoint{
			LoadFraction:  f,
			OfferedPerMin: rate * 60,
			MFCompleted:   mf.Completed,
			MFMeanLatency: mf.MeanLatency,
			MFP95Latency:  mf.Percentile(95),
			MFJoulesPer:   mf.joulesPer,
			ConvCompleted: cv.Completed,
			ConvMeanLat:   cv.MeanLatency,
			ConvP95Lat:    cv.Percentile(95),
			ConvJoulesPer: cv.joulesPer,
		})
	}
	return out, nil
}

// runLoadPoint measures one cluster at one offered rate.
func runLoadPoint(microfaas bool, ratePerSec float64, window time.Duration, seed int64) (loadSweepRun, error) {
	s, err := paperCluster(microfaas, cluster.SimConfig{Seed: seed})
	if err != nil {
		return loadSweepRun{}, err
	}
	sum, err := openLoad(s, ratePerSec, window)
	if err != nil {
		return loadSweepRun{}, err
	}
	joules := float64(s.Meter.TotalEnergy(s.Engine.Now()))
	return loadSweepRun{Summary: sum, joulesPer: joules / float64(sum.Completed)}, nil
}

// openLoad drives s with the paper's arrival process — one uniformly
// drawn function every 1/ratePerSec — for the window, lets the queue drain
// so every submission is measured, and reads the record table. A run that
// completed nothing is an error.
func openLoad(s *cluster.Sim, ratePerSec float64, window time.Duration) (trace.Summary, error) {
	fns := model.Functions()
	stop, err := s.Orch.StartArrivals(time.Duration(float64(time.Second)/ratePerSec), 1, func(rng *rand.Rand) (string, []byte) {
		return fns[rng.Intn(len(fns))].Name, nil
	})
	if err != nil {
		return trace.Summary{}, err
	}
	s.Engine.Run(window)
	stop()
	s.Engine.RunAll()
	sum := trace.Summarize(s.Orch.Collector())
	if sum.Completed == 0 {
		return sum, fmt.Errorf("experiments: open load at %.3f/s completed nothing", ratePerSec)
	}
	return sum, nil
}

// WriteLoadSweep prints the sweep.
func WriteLoadSweep(w io.Writer, pts []LoadSweepPoint) error {
	out := &printer{w: w}
	out.f("Load sweep: open arrivals at a fraction of matched capacity (%.0f func/min)\n", model.PaperSBCThroughput)
	out.f("%-6s %10s | %12s %12s %8s | %12s %12s %8s\n",
		"load", "func/min", "mf-lat", "mf-p95", "mf-J/f", "conv-lat", "conv-p95", "conv-J/f")
	for _, p := range pts {
		out.f("%-6.2f %10.1f | %12s %12s %8.2f | %12s %12s %8.2f\n",
			p.LoadFraction, p.OfferedPerMin,
			p.MFMeanLatency.Round(time.Millisecond), p.MFP95Latency.Round(time.Millisecond), p.MFJoulesPer,
			p.ConvMeanLat.Round(time.Millisecond), p.ConvP95Lat.Round(time.Millisecond), p.ConvJoulesPer)
	}
	out.f("MicroFaaS J/function stays near-flat with load (nodes power down);\nthe conventional rack's idle 60 W dominates at low load (Sec III-b, measured).\n")
	return out.err
}

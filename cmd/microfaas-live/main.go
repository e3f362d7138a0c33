// Command microfaas-live boots a complete in-process MicroFaaS deployment
// — backing services, real TCP workers, the orchestration platform — and
// either serves it as an HTTP FaaS gateway or drives a benchmark load
// through it.
//
// Serve mode (default): expose the gateway until interrupted.
//
//	microfaas-live -listen 127.0.0.1:8080
//
// Load mode: drive -jobs invocations of the full suite, print per-function
// statistics and the cluster's energy accounting, then exit.
//
//	microfaas-live -jobs 170 -boot-delay 100ms
//
// Dynamic power management (the MicroFaaS power manager) is opt-in:
//
//	microfaas-live -power-idle 30s -power-cap 12 -policy energy-aware
//
// Predictive mode layers an arrival-rate forecaster on top of the power
// manager, pre-warming workers ahead of forecast demand (serve mode;
// inspect it with `faasctl forecast`):
//
//	microfaas-live -power-idle 30s -policy energy-aware -predict
//
// Serve mode scrapes cluster telemetry into an embedded time-series
// store (backing /query, /slo, and /alerts plus `faasctl watch`) and can
// evaluate SLO burn-rate rules against it:
//
//	microfaas-live -slo examples/slo/rules.json -scrape-interval 2s
//
// A flag set on the command line that the chosen mode does not read exits
// 2 naming it, rather than being silently dropped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/core"
	"microfaas/internal/forecast"
	"microfaas/internal/gateway"
	"microfaas/internal/power"
	"microfaas/internal/powermgr"
	"microfaas/internal/replay"
	"microfaas/internal/shard"
	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
	"microfaas/internal/tsdb"
	"microfaas/internal/workload"
)

// options carries the parsed flags into the mode dispatch.
type options struct {
	live         cluster.LiveOptions
	listen       string
	jobs         int
	replayPath   string
	speedup      float64
	drainTimeout time.Duration
	pprof        bool
	slo          []tsdb.Rule
	scrapeEvery  time.Duration
	predict      bool
}

// mode is what the command does: replay a trace, drive a load, or serve.
func (o options) mode() string {
	if o.replayPath != "" {
		return "replay"
	}
	if o.jobs > 0 {
		return "load"
	}
	return "serve"
}

// onlyIn names the flags a single mode reads.
var onlyIn = map[string]string{
	"listen": "serve", "drain-timeout": "serve", "pprof": "serve", "slo": "serve",
	"scrape-interval": "serve", "predict": "serve",
	"jobs": "load", "speedup": "replay",
}

func main() {
	opts, status := parse(os.Args[1:], os.Stderr)
	if opts == nil {
		os.Exit(status)
	}
	if err := run(*opts); err != nil {
		fmt.Fprintln(os.Stderr, "microfaas-live:", err)
		os.Exit(1)
	}
}

// parse turns the command line into options. Nil options mean there is
// nothing to run and the status says why: 0 after -h, 2 when the command
// line is wrong, with the reason already on stderr. A flag set on the
// command line that the chosen mode does not read is wrong.
func parse(args []string, stderr io.Writer) (*options, int) {
	fs := flag.NewFlagSet("microfaas-live", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := options{live: cluster.LiveOptions{Meter: true, Telemetry: telemetry.New()}}
	live := &opts.live
	fs.IntVar(&live.Workers, "workers", 4, "live worker count")
	fs.StringVar(&opts.listen, "listen", "127.0.0.1:8080", "gateway listen address (serve mode)")
	fs.IntVar(&opts.jobs, "jobs", 0, "run N > 0 invocations and exit (load mode)")
	fs.StringVar(&opts.replayPath, "replay", "", "replay an at_ms,function CSV trace and exit (replay mode)")
	fs.Float64Var(&opts.speedup, "speedup", 1, "time compression for -replay (e.g. 60 = 1 virtual minute per second)")
	fs.DurationVar(&live.BootDelay, "boot-delay", 0, "simulated worker reboot before each job (BeagleBone: 1.51s)")
	fs.Int64Var(&live.Seed, "seed", 1, "assignment seed")
	fs.DurationVar(&live.JobTimeout, "job-timeout", 0, "per-attempt invocation deadline enforced by the OP (0 = none)")
	fs.IntVar(&live.MaxAttempts, "max-attempts", 1, "attempts per invocation before its failure is final")
	fs.DurationVar(&live.RetryBase, "retry-base", 0, "base delay for exponential retry backoff (0 = immediate re-queue)")
	fs.IntVar(&live.BreakerThreshold, "breaker-threshold", 0, "consecutive failures before a worker's circuit breaker opens (0 = disabled)")
	fs.DurationVar(&live.BreakerProbe, "breaker-probe", 30*time.Second, "how long an open breaker waits before probing the worker again")
	fs.DurationVar(&opts.drainTimeout, "drain-timeout", 30*time.Second, "in serve mode, how long shutdown waits for in-flight jobs")
	fs.BoolVar(&opts.pprof, "pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/ on the gateway (serve mode)")
	powerIdle := fs.Duration("power-idle", 0, "enable dynamic power management: power-gate workers idle this long (0 = static power, every worker always on)")
	powerCap := fs.Float64("power-cap", 0, "cluster power budget in watts; bounds simultaneously powered workers (0 = no cap; requires -power-idle)")
	powerMinUp := fs.Duration("power-minup", 0, "hysteresis: minimum time a woken worker stays powered (0 = powermgr default; requires -power-idle)")
	policyFlag := fs.String("policy", "", "assignment policy: round-robin, random, least-loaded, or energy-aware (default: platform default; energy-aware pairs with -power-idle)")
	sloPath := fs.String("slo", "", "SLO burn-rate rules (JSON) evaluated on every scrape in serve mode")
	fs.DurationVar(&opts.scrapeEvery, "scrape-interval", time.Second, "telemetry scrape cadence for the embedded time-series store (serve mode)")
	fs.BoolVar(&opts.predict, "predict", false, "predictive power management: forecast arrival rates and steer the warm pool ahead of demand (serve mode; requires -power-idle)")
	err := fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		return nil, 0
	}
	if err != nil {
		return nil, 2
	}
	fail := func(err error) (*options, int) {
		fmt.Fprintln(stderr, "microfaas-live:", err)
		return nil, 2
	}
	if opts.jobs < 0 {
		return fail(fmt.Errorf("-jobs must be positive, got %d", opts.jobs))
	}
	mode := opts.mode()
	fs.Visit(func(f *flag.Flag) {
		if m := onlyIn[f.Name]; err == nil && m != "" && m != mode {
			err = fmt.Errorf("-%s is read only in %s mode, and this is %s mode", f.Name, m, mode)
		}
	})
	if err != nil {
		return fail(err)
	}
	if *policyFlag != "" {
		if live.Policy, err = core.ParsePolicy(*policyFlag); err != nil {
			return fail(err)
		}
	}
	if *powerIdle > 0 {
		live.Power = &powermgr.Policy{
			IdleTimeout: *powerIdle,
			MinUp:       *powerMinUp,
			CapW:        power.Watts(*powerCap),
		}
	} else if *powerCap != 0 || *powerMinUp != 0 {
		return fail(errors.New("-power-cap and -power-minup require -power-idle"))
	}
	if opts.predict && live.Power == nil {
		return fail(errors.New("-predict requires -power-idle"))
	}
	if *sloPath != "" {
		if opts.slo, err = tsdb.LoadRules(*sloPath); err != nil {
			return fail(err)
		}
	}
	return &opts, 0
}

func run(opts options) error {
	l, err := cluster.StartLive(opts.live)
	if err != nil {
		return err
	}
	defer l.Close()
	fmt.Printf("live cluster up: %d workers, services kv=%s sql=%s cos=%s mq=%s\n",
		len(l.Workers), l.Env.KVStoreAddr, l.Env.SQLStoreAddr, l.Env.ObjStoreAddr, l.Env.MQAddr)

	switch opts.mode() {
	case "replay":
		return replayMode(os.Stdout, l, opts)
	case "load":
		return loadMode(os.Stdout, l, opts)
	}
	return serveMode(l, opts)
}

// replayMode replays the opts.replayPath CSV trace against the live
// cluster, compressing offsets by opts.speedup, and prints the same report
// as load mode.
func replayMode(w io.Writer, l *cluster.Live, opts options) error {
	speedup := opts.speedup
	if speedup <= 0 {
		return fmt.Errorf("speedup must be positive, got %v", speedup)
	}
	f, err := os.Open(opts.replayPath)
	if err != nil {
		return err
	}
	sched, err := replay.ReadCSV(f)
	f.Close() //nolint:errcheck // read-only
	if err != nil {
		return err
	}
	for i := range sched {
		sched[i].At = time.Duration(float64(sched[i].At) / speedup)
	}
	// Trace functions carry no arguments; generate realistic ones per
	// submission by wrapping the orchestrator. Each invocation reports its
	// final result (after any retries) once, and the report waits for all.
	rng := rand.New(rand.NewSource(opts.live.Seed))
	var done sync.WaitGroup
	done.Add(len(sched))
	start := l.Runtime.Now()
	n, err := replay.Feed(l.Runtime, &argFiller{orch: l.Orch, rng: rng, done: &done}, sched)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replaying %d invocations over %v (%.0fx compression)\n",
		n, sched.Duration().Round(time.Millisecond), speedup)
	done.Wait()
	return printReport(w, l, n, l.Runtime.Now()-start)
}

// argFiller adapts the orchestrator to replay.Submitter, generating
// arguments for each traced function on the fly, and marks done once per
// invocation when its final result is in. Replay timers fire on
// independent goroutines, so the shared random source is guarded.
type argFiller struct {
	orch *core.Orchestrator
	mu   sync.Mutex
	rng  *rand.Rand
	done *sync.WaitGroup
}

func (a *argFiller) Submit(function string, _ []byte) int64 {
	var args []byte
	if f, err := workload.Get(function); err == nil {
		a.mu.Lock()
		args = f.GenArgs(a.rng)
		a.mu.Unlock()
	}
	id := a.orch.SubmitAsync(function, args, func(core.Result) { a.done.Done() })
	if id == 0 { // refused (draining): no result will come
		a.done.Done()
	}
	return id
}

func serveMode(l *cluster.Live, opts options) error {
	scrapeEvery := opts.scrapeEvery
	// The gateway fronts a control plane; this deployment is a plane of one
	// shard.
	plane, err := shard.NewPlane(l.Runtime, []*core.Orchestrator{l.Orch}, shard.Config{})
	if err != nil {
		return err
	}
	// Serve mode carries the embedded time-series store: it scrapes the
	// plane's registry (the gateway's own families) and the shard's under
	// its label, as the sharded sim does, on the wall clock (the sim
	// scrapes on the aggregator tick instead), and backs /query, /slo, and
	// /alerts.
	store := tsdb.New(tsdb.Config{})
	if err := store.SetRules(opts.slo); err != nil {
		return err
	}
	store.AddSource("", plane.Registry())
	store.AddSource(plane.Labels()[0], l.Telemetry.Registry())
	stopScrape := store.Start(l.Runtime.Now, scrapeEvery)
	defer stopScrape()
	var ctl *forecast.Controller
	if opts.predict {
		// The predictor ticks on the scrape cadence so every tick sees a
		// fresh arrival-rate sample; it steers the same power manager the
		// reactive idle timeout owns.
		ctl, err = forecast.NewController(forecast.ControllerConfig{
			Store:   store,
			Manager: l.PowerMgr,
			Policy: forecast.Policy{
				Tick:       scrapeEvery,
				MaxWorkers: len(l.Workers),
				Spare:      1,
			},
			Telemetry: l.Telemetry,
		})
		if err != nil {
			return err
		}
		stopForecast := ctl.Start(l.Runtime, scrapeEvery)
		defer stopForecast()
	}
	gw, err := gateway.New(plane, gateway.Options{
		Mode:        "live",
		EnablePprof: opts.pprof,
		TSDB:        store,
		Forecast:    ctl,
	})
	if err != nil {
		return err
	}
	addr, err := gw.Listen(opts.listen)
	if err != nil {
		return err
	}
	defer gw.Close()
	fmt.Printf("gateway listening on http://%s — try:\n", addr)
	fmt.Printf("  faasctl -gateway %s functions\n", addr)
	fmt.Printf("  faasctl -gateway %s invoke CascSHA '{\"rounds\":1000,\"seed\":\"hi\"}'\n", addr)
	fmt.Printf("  faasctl -gateway %s top\n", addr)
	fmt.Printf("  faasctl -gateway %s watch microfaas_jobs_submitted_total\n", addr)
	if len(opts.slo) > 0 {
		fmt.Printf("  faasctl -gateway %s slo\n", addr)
		fmt.Printf("  faasctl -gateway %s alerts\n", addr)
	}
	if l.PowerMgr != nil {
		fmt.Printf("  faasctl -gateway %s power\n", addr)
	}
	if ctl != nil {
		fmt.Printf("  faasctl -gateway %s forecast\n", addr)
	}
	fmt.Printf("  curl http://%s/metrics\n", addr)
	fmt.Printf("  faasctl -gateway %s trace --slowest 5\n", addr)
	if opts.pprof {
		fmt.Printf("  go tool pprof http://%s/debug/pprof/profile?seconds=10\n", addr)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Graceful drain: refuse new submissions, give in-flight work up to
	// drainTimeout to finish, report anything abandoned.
	fmt.Printf("\ndraining (up to %v for in-flight jobs)\n", opts.drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), opts.drainTimeout)
	defer cancel()
	abandoned := plane.Drain(ctx)
	if len(abandoned) > 0 {
		fmt.Printf("drain deadline hit: %d queued jobs abandoned\n", len(abandoned))
	}
	fmt.Println("shutting down")
	return nil
}

// loadMode drives opts.jobs invocations round-robin over the suite and
// prints the report.
func loadMode(w io.Writer, l *cluster.Live, opts options) error {
	rng := rand.New(rand.NewSource(opts.live.Seed))
	fns := workload.All()
	start := l.Runtime.Now()
	for i := 0; i < opts.jobs; i++ {
		f := fns[i%len(fns)]
		l.Orch.Submit(f.Name, f.GenArgs(rng))
	}
	l.Orch.Quiesce()
	return printReport(w, l, opts.jobs, l.Runtime.Now()-start)
}

// printReport renders per-function statistics (over the retained records,
// one per attempt) and lifetime cluster totals. Failed invocations — jobs
// that did not complete, however many attempts each made — come back as
// an error.
func printReport(w io.Writer, l *cluster.Live, jobs int, elapsed time.Duration) error {
	coll := l.Orch.Collector()
	fmt.Fprintf(w, "\n%-12s %6s %10s %12s %10s %10s\n",
		"function", "count", "errors", "mean-exec", "mean-ovh", "p95-total")
	for _, st := range coll.ByFunction() {
		fmt.Fprintf(w, "%-12s %6d %10d %12s %10s %10s\n",
			st.Function, st.Count, st.Errors,
			st.MeanExec.Round(time.Microsecond),
			st.MeanOverhead.Round(time.Microsecond),
			st.P95Total.Round(time.Microsecond))
	}
	completed := coll.Len() - coll.ErrorCount() // each job succeeds at most once
	if sum := trace.Summarize(coll); sum.Completed > 0 {
		fmt.Fprintf(w, "\nend-to-end latency: p50 %v, p95 %v\n",
			sum.Percentile(50).Round(time.Microsecond),
			sum.Percentile(95).Round(time.Microsecond))
	}
	fmt.Fprintf(w, "\ncompleted %d/%d in %v (%.1f func/min)\n",
		completed, jobs, elapsed.Round(time.Millisecond),
		float64(completed)/elapsed.Minutes())
	if l.Meter != nil && completed > 0 {
		energy := float64(l.Meter.TotalEnergy(l.Runtime.Now()))
		fmt.Fprintf(w, "modelled energy: %.2f J total, %.3f J/function\n",
			energy, energy/float64(completed))
	}
	if failed := jobs - completed; failed > 0 {
		return fmt.Errorf("%d invocations failed", failed)
	}
	return nil
}

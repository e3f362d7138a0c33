package microfaas

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"microfaas/internal/bootos"
	"microfaas/internal/experiments"
	"microfaas/internal/forecast"
	"microfaas/internal/model"
	"microfaas/internal/telemetry"
	"microfaas/internal/tsdb"
)

// The benchmark harness: one benchmark per paper table/figure (plus the
// ablations). Each regenerates its experiment end-to-end and reports the
// headline quantities as custom metrics, so `go test -bench=. -benchmem`
// doubles as the reproduction run. EXPERIMENTS.md records the measured
// values next to the paper's.

// BenchmarkFig1BootStages regenerates the Fig 1 boot-time development
// timeline and reports the final ARM/x86 boot times.
func BenchmarkFig1BootStages(b *testing.B) {
	var rows []Fig1Row
	for i := 0; i < b.N; i++ {
		rows = Fig1()
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.ARMReal.Seconds(), "arm-boot-s")
	b.ReportMetric(last.X86Real.Seconds(), "x86-boot-s")
	b.ReportMetric(rows[0].ARMReal.Seconds(), "arm-baseline-s")
}

// BenchmarkFig3Runtimes regenerates the per-function runtime split on both
// clusters (Fig 3) and reports the paper's 4/9/4 speed-class split.
func BenchmarkFig3Runtimes(b *testing.B) {
	var rows []Fig3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Fig3(Fig3Config{InvocationsPerFunction: 40, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	faster, atHalf, below := 0, 0, 0
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
	b.ReportMetric(float64(faster), "faster-fns")
	b.ReportMetric(float64(atHalf), "half-speed-fns")
	b.ReportMetric(float64(below), "below-half-fns")
}

// BenchmarkFig4VMSweep regenerates the VM-count efficiency sweep (Fig 4)
// and reports the conventional cluster's peak efficiency.
func BenchmarkFig4VMSweep(b *testing.B) {
	var res Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Fig4(Fig4Config{MaxVMs: 24, JobsPerVM: 150, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.PeakJoules, "peak-J/func")
	b.ReportMetric(float64(res.PeakVMs), "peak-VMs")
	b.ReportMetric(res.MicroFaaSJoules, "microfaas-J/func")
}

// BenchmarkFig5PowerSweep regenerates the energy-proportionality power
// sweep (Fig 5) and reports the idle offsets of both clusters.
func BenchmarkFig5PowerSweep(b *testing.B) {
	var pts []Fig5Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = Fig5(Fig5Config{MaxWorkers: 10, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].MicroFaaSWatts, "mf-idle-W")
	b.ReportMetric(pts[0].ConventionalWatts, "conv-idle-W")
	b.ReportMetric(pts[len(pts)-1].MicroFaaSWatts, "mf-full-W")
	b.ReportMetric(pts[len(pts)-1].ConventionalWatts, "conv-full-W")
}

// BenchmarkHeadline regenerates Sec V's throughput-matched comparison.
func BenchmarkHeadline(b *testing.B) {
	var res HeadlineResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Headline(HeadlineConfig{InvocationsPerFunction: 60, Seed: 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SBCThroughputPerMin, "sbc-func/min")
	b.ReportMetric(res.VMThroughputPerMin, "vm-func/min")
	b.ReportMetric(res.MicroFaaSJoules, "mf-J/func")
	b.ReportMetric(res.ConventionalJoules, "conv-J/func")
	b.ReportMetric(res.EfficiencyGain, "gain-x")
}

// BenchmarkTable2TCO regenerates the 5-year TCO comparison (Table II).
func BenchmarkTable2TCO(b *testing.B) {
	var rows []TCOComparison
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = TableII()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].MicroFaaS.Total(), "ideal-mf-usd")
	b.ReportMetric(rows[0].Conventional.Total(), "ideal-conv-usd")
	b.ReportMetric(rows[0].Savings()*100, "ideal-savings-pct")
	b.ReportMetric(rows[1].Savings()*100, "realistic-savings-pct")
}

// BenchmarkAblationCryptoAccel measures the crypto-accelerator variant.
func BenchmarkAblationCryptoAccel(b *testing.B) {
	var res AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = AblationCryptoAccel(8, 5, 25, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Speedup(), "throughput-gain-x")
	b.ReportMetric(res.ModifiedJoules, "J/func")
}

// BenchmarkAblationGigE measures the Gigabit-NIC variant.
func BenchmarkAblationGigE(b *testing.B) {
	var res AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = AblationGigE(6, 25, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Speedup(), "throughput-gain-x")
}

// BenchmarkAblationNoReboot measures the no-reboot variant (the price of
// the Sec III-a isolation guarantee).
func BenchmarkAblationNoReboot(b *testing.B) {
	var res AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = AblationNoReboot(7, 25, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Speedup(), "throughput-gain-x")
	b.ReportMetric(res.ModifiedJoules, "J/func")
}

// BenchmarkRackScale simulates the Table II racks end-to-end: 989 SBCs vs
// 41 servers × 16 VMs (1,645 concurrent simulated workers), measuring
// whether the paper's throughput-equivalence estimate holds.
func BenchmarkRackScale(b *testing.B) {
	var res experiments.RackScaleResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RackScale(experiments.RackScaleConfig{JobsPerWorker: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SBCThroughput, "sbc-rack-func/min")
	b.ReportMetric(res.ServerThroughput, "conv-rack-func/min")
	b.ReportMetric(res.SBCThroughput/res.ServerThroughput, "throughput-ratio")
	b.ReportMetric(res.ServerPowerW/res.SBCPowerW, "power-ratio-x")
}

// BenchmarkLoadSweep measures the open-load energy-proportionality sweep
// and reports the low-load J/function blowup of each cluster.
func BenchmarkLoadSweep(b *testing.B) {
	var pts []LoadSweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = LoadSweep(LoadSweepConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	low, high := pts[0], pts[len(pts)-1]
	b.ReportMetric(low.ConvJoulesPer/high.ConvJoulesPer, "conv-lowload-blowup-x")
	b.ReportMetric(low.MFJoulesPer/high.MFJoulesPer, "mf-lowload-blowup-x")
	b.ReportMetric(low.ConvJoulesPer/low.MFJoulesPer, "gain-at-10pct-load-x")
}

// BenchmarkKeepWarm measures the warm-pool extension: latency saved and
// energy paid relative to the paper's power-down-immediately policy.
func BenchmarkKeepWarm(b *testing.B) {
	var pts []KeepWarmPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = KeepWarm(KeepWarmConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	paper, warm := pts[0], pts[len(pts)-1]
	b.ReportMetric(paper.MeanLatency.Seconds(), "paper-latency-s")
	b.ReportMetric(warm.MeanLatency.Seconds(), "warm-latency-s")
	b.ReportMetric(warm.JoulesPerFunc/paper.JoulesPerFunc, "warm-energy-cost-x")
	b.ReportMetric(warm.WarmFraction*100, "warm-hit-pct")
}

// BenchmarkDiurnal replays a synthetic day (≈137k invocations) into both
// clusters and reports the daily energy comparison.
func BenchmarkDiurnal(b *testing.B) {
	var res DiurnalResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Diurnal(DiurnalConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Invocations), "invocations")
	b.ReportMetric(res.MF.KWh, "mf-kWh/day")
	b.ReportMetric(res.Conv.KWh, "conv-kWh/day")
	b.ReportMetric(res.Conv.KWh/res.MF.KWh, "daily-energy-ratio-x")
}

// BenchmarkSensitivity runs the calibration-perturbation study and
// reports the gain distribution under ±20% service-time noise.
func BenchmarkSensitivity(b *testing.B) {
	var res SensitivityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Sensitivity(SensitivityConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MinGain, "min-gain-x")
	b.ReportMetric(res.MedianGain, "median-gain-x")
	b.ReportMetric(res.MaxGain, "max-gain-x")
	b.ReportMetric(float64(res.TrialsBelowParity), "flipped-trials")
}

// BenchmarkLiveInvocation measures one end-to-end live invocation: OP →
// TCP → worker → real function → result (no reboot pause, CPU-bound
// function) — the live runtime's floor latency.
func BenchmarkLiveInvocation(b *testing.B) {
	l, err := StartLiveCluster(LiveOptions{Workers: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	args := []byte(`{"rounds":100,"seed":"bench"}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Orch.Submit("CascSHA", args)
		l.Orch.Quiesce()
	}
	b.StopTimer()
	if l.Orch.Collector().ErrorCount() != 0 {
		b.Fatal("live invocations failed")
	}
}

// BenchmarkWorkloadSuiteDirect measures the 17 real functions executed
// back-to-back in-process (no cluster), the pure compute cost of the
// suite's Go implementations.
func BenchmarkWorkloadSuiteDirect(b *testing.B) {
	l, err := StartLiveCluster(LiveOptions{Workers: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	fns := Functions()
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := fns[i%len(fns)]
		if _, err := f.Run(l.Env, f.GenArgs(rng)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorEventRate measures raw DES throughput: how many
// simulated MicroFaaS job cycles the engine executes per wall second
// (capacity planning for datacenter-scale runs).
func BenchmarkSimulatorEventRate(b *testing.B) {
	s, err := NewMicroFaaSSim(model.SBCCount, SimOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ids := s.Orch.Workers()
	fns := model.Functions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Orch.SubmitTo(ids[i%len(ids)], fns[i%len(fns)].Name, nil); err != nil {
			b.Fatal(err)
		}
	}
	s.Engine.RunAll()
	b.StopTimer()
	if s.Orch.Pending() != 0 {
		b.Fatal("jobs stuck")
	}
}

// BenchmarkBootModel exercises the Fig 1 component model itself.
func BenchmarkBootModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if bootos.BootTime(bootos.ARM) <= 0 {
			b.Fatal("boot model broken")
		}
		bootos.Timeline(bootos.X86)
	}
}

// BenchmarkBootImpact sweeps the Fig 1 OS stages at cluster level and
// reports how much throughput the boot-time engineering bought.
func BenchmarkBootImpact(b *testing.B) {
	var rows []BootImpactRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = BootImpact(BootImpactConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	b.ReportMetric(first.ThroughputPerMin, "baseline-func/min")
	b.ReportMetric(last.ThroughputPerMin, "final-func/min")
	b.ReportMetric(last.ThroughputPerMin/first.ThroughputPerMin, "os-work-gain-x")
}

// BenchmarkExperimentSuiteSerial renders the full `microfaas-sim all`
// report on one core — the baseline the parallel runner is measured
// against.
func BenchmarkExperimentSuiteSerial(b *testing.B) {
	benchmarkExperimentSuite(b, 1)
}

// BenchmarkExperimentSuiteParallel renders the same report with the
// worker pool at GOMAXPROCS. Output is byte-identical to the serial run
// (the determinism tests enforce it); only wall-clock should move.
func BenchmarkExperimentSuiteParallel(b *testing.B) {
	benchmarkExperimentSuite(b, 0) // 0 = GOMAXPROCS
}

func benchmarkExperimentSuite(b *testing.B, parallel int) {
	var n int64
	for i := 0; i < b.N; i++ {
		var sink countingWriter
		if err := experiments.WriteAll(&sink, experiments.AllConfig{
			InvocationsPerFunction: 40, Seed: 1, Parallel: parallel,
		}); err != nil {
			b.Fatal(err)
		}
		n = sink.n
	}
	b.ReportMetric(float64(n), "report-bytes")
	b.ReportMetric(float64(experiments.Parallelism(parallel)), "pool-size")
}

// countingWriter discards output while keeping the report honest about
// how much it rendered.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// BenchmarkRackScale10K simulates the 10,000-SBC MicroFaaS rack against
// the throughput-matched 415-server conventional rack — the PR's
// dispatch-scalability target (the indexed free-list keeps the
// orchestrator's dispatch O(1) per job at this worker count).
func BenchmarkRackScale10K(b *testing.B) {
	var res experiments.RackScaleResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RackScale(experiments.RackScaleConfig{
			SBCs: 10000, Servers: 415, JobsPerWorker: 2, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SBCThroughput, "sbc-rack-func/min")
	b.ReportMetric(res.SBCThroughput/res.ServerThroughput, "throughput-ratio")
}

// BenchmarkShardedRackScale runs the sharded-control-plane experiment at
// full scale — 64 shards × 1100 SBCs behind the consistent-hash
// load-balancer tier — and reports the sustained cluster throughput
// (the >1M func/min target), the bounded-load + aggregator gain over
// plain consistent hashing, and the hot-key p99 relief the cross-shard
// work stealer provides.
func BenchmarkShardedRackScale(b *testing.B) {
	var res experiments.ShardedRackResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.ShardedRack(experiments.ShardedRackConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	byName := map[string]experiments.ShardedArm{}
	for _, a := range res.Arms {
		byName[a.Name] = a
	}
	full, plain := byName["uniform/full"], byName["uniform/plain"]
	hotPlain, hotSteal := byName["hotkey/plain"], byName["hotkey/steal"]
	b.ReportMetric(full.SustainedPerMin, "sustained-func/min")
	b.ReportMetric(full.SustainedPerMin/plain.SustainedPerMin, "bounded-load-gain-x")
	b.ReportMetric(hotPlain.P99S/hotSteal.P99S, "steal-p99-relief-x")
	b.ReportMetric(float64(hotSteal.Stolen), "stolen-jobs")
}

// BenchmarkShardFailover runs the dynamic-membership experiment at full
// scale — 64 shards, 4 killed mid-run — and reports the failover
// headlines: accepted invocations lost (must stay 0), the post-recovery
// throughput as a fraction of the pre-kill rate, and the energy
// overhead the health checker and drain machinery add over the static
// baseline.
func BenchmarkShardFailover(b *testing.B) {
	var res experiments.ShardFailoverResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.ShardFailover(experiments.ShardFailoverConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	static, failover := res.Arms[0], res.Arms[1]
	b.ReportMetric(float64(failover.Lost), "lost-invocations")
	b.ReportMetric(failover.Recovery, "throughput-recovery-x")
	b.ReportMetric(float64(failover.Deaths), "shard-deaths")
	b.ReportMetric(failover.JoulesPerFunc/static.JoulesPerFunc, "energy-overhead-x")
}

// BenchmarkTSDBScrape measures one observability tick at sharded-plane
// cardinality: 8 shard registries, each carrying 16 functions' outcome
// counters, energy counters, and latency histograms, scraped into the
// embedded store with the shipped latency/error/energy burn-rate rules
// evaluated on every tick. The capacity aggregator runs this hook every
// tick in sim and the live scraper every -scrape-interval, so this cost
// sets the floor on how fine the sampling cadence can go.
//
// Nothing moves between its scrapes, so with series stored as runs a
// scrape here is the walk, one count bumped per series and the rule
// evaluation — plus, past RawCapacity (1,024) scrapes, one sample per
// series leaving its run for the tiers. allocs/op is the first scrape's
// interning (≈ 34,600 allocations, once) and that tier growth, divided
// by b.N: 173 at b.N = 200, 43 at 800, 29 at 3,000. It still moves with
// b.N, but the per-series rings that grew from the first scrape on are
// gone, so it sits under the per-sample store's figure at every b.N
// (373, 118, 36) and the gate's limit of 75 has room from b.N ≈ 500 up;
// the exact pins are TestScrapeSteadyStateAllocs and
// TestScrapeUnchangedWritesNothing. BenchmarkTSDBScrapeChurn is the
// moving case.
func BenchmarkTSDBScrape(b *testing.B) { benchTSDBScrape(b, false) }

// BenchmarkTSDBScrapeChurn is BenchmarkTSDBScrape with one function in
// sixteen advancing its counters and histogram before every scrape: what
// a changing series costs — a run closed and opened, and a fold into the
// tiers once its samples outlast the raw capacity. Not gated.
func BenchmarkTSDBScrapeChurn(b *testing.B) { benchTSDBScrape(b, true) }

func benchTSDBScrape(b *testing.B, churn bool) {
	store := tsdb.New(tsdb.Config{})
	buckets := telemetry.LogBuckets(1e-3, 60, 20)
	advance := make([][]func(), 16) // by function: what moves its series, in every shard
	for s := 0; s < 8; s++ {
		reg := telemetry.NewRegistry()
		for f := 0; f < 16; f++ {
			fn := fmt.Sprintf("fn-%02d", f)
			ok := reg.Counter("microfaas_function_invocations_total", "Outcomes.", "function", fn, "result", "ok")
			ok.Add(float64(100 + f))
			reg.Counter("microfaas_function_invocations_total", "Outcomes.", "function", fn, "result", "error").Add(float64(f % 3))
			joules := reg.Counter("microfaas_function_energy_joules_total", "Joules.", "function", fn)
			joules.Add(float64(50 + f))
			h := reg.Histogram("microfaas_invocation_latency_seconds", "Latency.", buckets, "function", fn)
			for i := 0; i < 4; i++ {
				h.Observe(0.01 * float64(f+i+1))
			}
			latency := 0.01 * float64(f+1)
			advance[f] = append(advance[f], func() { ok.Inc(); joules.Add(5.7); h.Observe(latency) })
		}
		reg.Counter("microfaas_jobs_submitted_total", "Submitted.").Add(1000)
		reg.Gauge("microfaas_queue_depth", "Depth.").Set(3)
		store.AddSource(fmt.Sprintf("shard-%02d", s), reg)
	}
	rules, err := tsdb.LoadRules("examples/slo/rules.json")
	if err != nil {
		b.Fatal(err)
	}
	if err := store.SetRules(rules); err != nil {
		b.Fatal(err)
	}
	now := time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if churn {
			for _, step := range advance[i%16] {
				step()
			}
		}
		store.Scrape(now)
		now += time.Second
	}
	b.StopTimer()
	b.ReportMetric(float64(store.SeriesCount()), "series")
}

// BenchmarkForecastTick measures one predictor tick at the predictive
// arm's cardinality: 16 functions' submission counters scraped into the
// embedded store, then one Observe+Predict pass over all of them
// (observe-only — actuation on top is a couple of mutex'd warm-pool
// calls). The forecast controller runs this on every aggregator tick in
// the sim and every scrape interval live, so it must stay cheap next to
// the scrape itself.
func BenchmarkForecastTick(b *testing.B) {
	reg := telemetry.NewRegistry()
	subs := make([]*telemetry.Counter, 16)
	for f := range subs {
		subs[f] = reg.Counter(tsdb.MetricSubmittedByFunction, "Submitted.",
			"function", fmt.Sprintf("fn-%02d", f))
	}
	store := tsdb.New(tsdb.Config{})
	store.AddSource("", reg)
	ctl, err := forecast.NewController(forecast.ControllerConfig{
		Store:  store,
		Policy: forecast.Policy{Tick: time.Second},
	})
	if err != nil {
		b.Fatal(err)
	}
	now := time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f, c := range subs {
			c.Add(float64(1 + (i+f)%3))
		}
		store.Scrape(now)
		ctl.Tick(now)
		now += time.Second
	}
	b.StopTimer()
	b.ReportMetric(ctl.Snapshot().ErrorRatio, "err-ratio")
}

// BenchmarkPredictivePower regenerates the four-arm power-management
// comparison (per-job / always-on / reactive managed / predictive) over
// the 2 h diurnal trace and reports the headline pair at each
// utilization level: energy savings vs always-on and p99 latency, for
// the predictive arm next to the reactive one. EXPERIMENTS.md records
// these values; the acceptance bar is predictive ≥ reactive on both.
func BenchmarkPredictivePower(b *testing.B) {
	var res experiments.PowerMgmtResult
	for i := 0; i < b.N; i++ {
		var err error
		// Seed 1 matches the microfaas-sim CLI default, so the metrics
		// line up with the EXPERIMENTS.md table.
		res, err = experiments.PowerMgmt(experiments.PowerMgmtConfig{Predict: true, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, lv := range res.Levels {
		u := int(lv.Utilization * 100)
		b.ReportMetric(100*lv.SavingsPredictive, fmt.Sprintf("pred-save%d", u))
		b.ReportMetric(100*lv.SavingsVsAlwaysOn, fmt.Sprintf("mgd-save%d", u))
		b.ReportMetric(lv.Predictive.P99Latency.Seconds(), fmt.Sprintf("pred-p99s%d", u))
		b.ReportMetric(lv.Managed.P99Latency.Seconds(), fmt.Sprintf("mgd-p99s%d", u))
	}
}

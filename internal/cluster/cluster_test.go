package cluster

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"microfaas/internal/model"
	"microfaas/internal/node"
	"microfaas/internal/workload"
)

func TestMicroFaaSSimReproducesPaperThroughput(t *testing.T) {
	s, err := NewMicroFaaSSim(model.SBCCount, SimConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunSuite(40, nil); err != nil { // 40×17 = 680 jobs
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Errors != 0 {
		t.Fatalf("%d errors", st.Errors)
	}
	if math.Abs(st.ThroughputPerMin-model.PaperSBCThroughput)/model.PaperSBCThroughput > 0.03 {
		t.Fatalf("throughput = %.1f func/min, want %.1f ± 3%%",
			st.ThroughputPerMin, model.PaperSBCThroughput)
	}
}

func TestConventionalSimReproducesPaperThroughput(t *testing.T) {
	s, err := NewConventionalSim(model.VMCount, SimConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunSuite(40, nil); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if math.Abs(st.ThroughputPerMin-model.PaperVMThroughput)/model.PaperVMThroughput > 0.03 {
		t.Fatalf("throughput = %.1f func/min, want %.1f ± 3%%",
			st.ThroughputPerMin, model.PaperVMThroughput)
	}
}

func TestEnergyHeadlineNumbers(t *testing.T) {
	mf, err := NewMicroFaaSSim(model.SBCCount, SimConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mf.RunSuite(40, nil); err != nil {
		t.Fatal(err)
	}
	mfJ := mf.Stats().JoulesPerFunction
	if math.Abs(mfJ-model.PaperMicroFaaSJoulesPerFunc)/model.PaperMicroFaaSJoulesPerFunc > 0.08 {
		t.Fatalf("MicroFaaS J/func = %.2f, want %.1f ± 8%%", mfJ, model.PaperMicroFaaSJoulesPerFunc)
	}

	conv, err := NewConventionalSim(model.VMCount, SimConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conv.RunSuite(40, nil); err != nil {
		t.Fatal(err)
	}
	convJ := conv.Stats().JoulesPerFunction
	if math.Abs(convJ-model.PaperConventionalJoulesPerFunc)/model.PaperConventionalJoulesPerFunc > 0.08 {
		t.Fatalf("conventional J/func = %.2f, want %.1f ± 8%%", convJ, model.PaperConventionalJoulesPerFunc)
	}

	gain := convJ / mfJ
	if math.Abs(gain-model.PaperEnergyEfficiencyGain)/model.PaperEnergyEfficiencyGain > 0.10 {
		t.Fatalf("efficiency gain = %.2fx, want %.1fx ± 10%%", gain, model.PaperEnergyEfficiencyGain)
	}
}

func TestSimDeterministicForSeed(t *testing.T) {
	run := func() SuiteStats {
		s, err := NewMicroFaaSSim(4, SimConfig{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunSuite(5, nil); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	a, b := run(), run()
	// Energy totals sum over a map, so the last float bits may differ in
	// order; everything else must be bit-identical.
	if a.Completed != b.Completed || a.Errors != b.Errors ||
		a.MeanCycle != b.MeanCycle || a.MakespanS != b.MakespanS ||
		a.ThroughputPerMin != b.ThroughputPerMin {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", a, b)
	}
	if math.Abs(a.TotalEnergyJ-b.TotalEnergyJ) > 1e-6 {
		t.Fatalf("energy diverged: %v vs %v", a.TotalEnergyJ, b.TotalEnergyJ)
	}
}

func TestSimSeedChangesOutcome(t *testing.T) {
	stats := func(seed int64) SuiteStats {
		s, err := NewMicroFaaSSim(4, SimConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunSuite(5, nil); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	if stats(1).MakespanS == stats(2).MakespanS {
		t.Fatal("different seeds produced identical makespans — jitter inert?")
	}
}

func TestRunSuiteValidation(t *testing.T) {
	s, err := NewMicroFaaSSim(2, SimConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunSuite(0, nil); err == nil {
		t.Fatal("zero jobs accepted")
	}
	if _, err := NewMicroFaaSSim(0, SimConfig{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
	if _, err := NewConventionalSim(0, SimConfig{}); err == nil {
		t.Fatal("empty VM cluster accepted")
	}
}

func TestConventionalThroughputSaturates(t *testing.T) {
	// Fig 4's mechanism: throughput grows ~linearly in VM count until the
	// cores saturate, then plateaus.
	thpt := func(vms int) float64 {
		s, err := NewConventionalSim(vms, SimConfig{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunSuite(12, nil); err != nil {
			t.Fatal(err)
		}
		// Plateau throughput must be measured as completions over
		// makespan, not per-worker cycle capacity.
		st := s.Stats()
		return float64(st.Completed) / (st.MakespanS / 60)
	}
	t6, t12, t20, t24 := thpt(6), thpt(12), thpt(20), thpt(24)
	if t12 < t6*1.7 {
		t.Fatalf("6→12 VMs: %.1f → %.1f func/min — should be near-linear", t6, t12)
	}
	if t24 > t20*1.10 {
		t.Fatalf("20→24 VMs: %.1f → %.1f func/min — should have plateaued", t20, t24)
	}
	sat := model.SaturatedThroughput()
	if math.Abs(t24-sat)/sat > 0.10 {
		t.Fatalf("plateau %.1f func/min, want ≈%.1f", t24, sat)
	}
}

func TestLiveClusterEndToEnd(t *testing.T) {
	l, err := StartLive(LiveOptions{Workers: 3, Seed: 5, Meter: true, LiveBoardConfig: node.LiveBoardConfig{BootDelay: 5 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Drive one of each function through the real stack.
	rng := rand.New(rand.NewSource(8))
	for _, f := range workload.All() {
		l.Orch.Submit(f.Name, f.GenArgs(rng))
	}
	l.Orch.Quiesce()
	recs := l.Orch.Collector().Records()
	if len(recs) != 17 {
		t.Fatalf("completed %d of 17", len(recs))
	}
	for _, r := range recs {
		if r.Err != "" {
			t.Errorf("%s failed: %s", r.Function, r.Err)
		}
		if r.Boot < 5*time.Millisecond {
			t.Errorf("%s: boot %v below configured delay", r.Function, r.Boot)
		}
		if r.Exec <= 0 {
			t.Errorf("%s: no measured exec time", r.Function)
		}
	}
	// Power accounting ran: all workers off, energy accumulated.
	for _, w := range l.Workers {
		if got := l.Meter.Power(w.ID()); got != 0.128 {
			t.Errorf("%s draw = %v, want off", w.ID(), got)
		}
	}
	if l.Meter.TotalEnergy(l.Runtime.Now()) <= 0 {
		t.Error("no energy recorded")
	}
}

func TestLiveClusterArrivalProcess(t *testing.T) {
	l, err := StartLive(LiveOptions{Workers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(1))
	fns := []string{"RedisInsert", "MQProduce", "RegExMatch"}
	stop, err := l.Orch.StartArrivals(15*time.Millisecond, 1, func(r *rand.Rand) (string, []byte) {
		name := fns[r.Intn(len(fns))]
		f, _ := workload.Get(name)
		return name, f.GenArgs(rng)
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	stop()
	l.Orch.Quiesce()
	if n := l.Orch.Collector().Len(); n < 5 {
		t.Fatalf("arrival process completed only %d jobs", n)
	}
	if e := l.Orch.Collector().ErrorCount(); e != 0 {
		t.Fatalf("%d errors under arrival load", e)
	}
}

func TestLiveCloseIdempotent(t *testing.T) {
	l, err := StartLive(LiveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	l.Close()
}

// TestSimJobCycleAllocs pins what one job costs the simulator's hot path
// end to end: a SubmitTo on a 10-SBC cluster, then the engine running it
// through boot, execution, settle and power-down. Seven allocations per
// job is the count this test was written at.
func TestSimJobCycleAllocs(t *testing.T) {
	s, err := NewMicroFaaSSim(model.SBCCount, SimConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ids := s.Orch.Workers()
	fns := model.Functions()
	i := 0
	cycle := func() {
		if _, err := s.Orch.SubmitTo(ids[i%len(ids)], fns[i%len(fns)].Name, nil); err != nil {
			t.Fatal(err)
		}
		s.Engine.RunAll()
		i++
	}
	for i < 2000 {
		cycle()
	}
	if got := testing.AllocsPerRun(1000, cycle); got > 7 {
		t.Fatalf("%v allocations per simulated job, want at most 7", got)
	}
	if s.Orch.Pending() != 0 {
		t.Fatal("jobs stuck")
	}
}

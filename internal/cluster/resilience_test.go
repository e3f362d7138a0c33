package cluster

import (
	"testing"

	"microfaas/internal/core"
	"microfaas/internal/model"
)

// erroring is a cluster config whose boards fail each attempt with
// probability p and whose OP runs each job up to attempts times.
func erroring(seed int64, p float64, attempts int) SimConfig {
	cfg := SimConfig{Seed: seed}
	cfg.Faults.ErrorProb = p
	cfg.MaxAttempts = attempts
	return cfg
}

func TestFaultInjectionWithoutRetriesSurfacesErrors(t *testing.T) {
	s, err := NewMicroFaaSSim(6, erroring(11, 0.25, 0))
	if err != nil {
		t.Fatal(err)
	}
	coll, err := s.RunSuite(20, nil)
	if err != nil {
		t.Fatal(err)
	}
	errs := coll.ErrorCount()
	total := coll.Len()
	// Roughly a quarter of invocations should fail (binomial, wide band).
	if errs < total/8 || errs > total/2 {
		t.Fatalf("%d/%d failures at 25%% injection — injection miscalibrated", errs, total)
	}
}

func TestRetriesMaskInjectedFaults(t *testing.T) {
	s, err := NewMicroFaaSSim(6, erroring(11, 0.25, 4))
	if err != nil {
		t.Fatal(err)
	}
	coll, err := s.RunSuite(20, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Per-job final failure probability is 0.25^4 ≈ 0.4%; group records by
	// job id and check final outcomes.
	finalErr := map[int64]bool{}
	attempts := map[int64]int{}
	for _, r := range coll.Records() {
		finalErr[r.JobID] = r.Err != ""
		attempts[r.JobID]++
	}
	failed, retried := 0, 0
	for id, bad := range finalErr {
		if bad {
			failed++
		}
		if attempts[id] > 1 {
			retried++
		}
	}
	if failed > len(finalErr)/20 {
		t.Fatalf("%d of %d jobs failed after retries, expected <5%%", failed, len(finalErr))
	}
	if retried == 0 {
		t.Fatal("no job was ever retried at a 25% fault rate")
	}
}

func TestFaultsCostThroughput(t *testing.T) {
	run := func(rate float64, attempts int) float64 {
		s, err := NewMicroFaaSSim(model.SBCCount, erroring(5, rate, attempts))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunSuite(20, nil); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		return float64(st.Completed) / (st.MakespanS / 60)
	}
	clean := run(0, 1)
	faulty := run(0.2, 4)
	// Retries re-execute ~20% of work (partially, since faults strike
	// mid-execution), so goodput drops but by far less than 2x.
	if faulty >= clean {
		t.Fatalf("faulty goodput %.1f >= clean %.1f", faulty, clean)
	}
	if faulty < clean*0.6 {
		t.Fatalf("faulty goodput %.1f collapsed vs clean %.1f", faulty, clean)
	}
}

func TestAssignmentPoliciesThroughCluster(t *testing.T) {
	for _, policy := range []core.AssignPolicy{core.AssignRandom, core.AssignRoundRobin, core.AssignLeastLoaded} {
		s, err := NewMicroFaaSSim(4, SimConfig{Seed: 3, Policy: policy})
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		// Drive through Submit (the policy path), not RunSuite's SubmitTo.
		fns := model.Functions()
		for i := 0; i < 68; i++ {
			s.Orch.Submit(fns[i%len(fns)].Name, nil)
		}
		s.Engine.RunAll()
		coll := s.Orch.Collector()
		if coll.Len() != 68 || coll.ErrorCount() != 0 {
			t.Fatalf("%v: %d records, %d errors", policy, coll.Len(), coll.ErrorCount())
		}
		// Every worker participated under every policy.
		seen := map[string]bool{}
		for _, r := range coll.Records() {
			seen[r.Worker] = true
		}
		if len(seen) != 4 {
			t.Fatalf("%v: only %d of 4 workers used", policy, len(seen))
		}
	}
}

func TestConventionalRackSimValidation(t *testing.T) {
	if _, err := NewConventionalRackSim(0, 4, SimConfig{}); err == nil {
		t.Fatal("zero servers accepted")
	}
	if _, err := NewConventionalRackSim(2, 0, SimConfig{}); err == nil {
		t.Fatal("zero VMs per server accepted")
	}
}

func TestConventionalRackSimScalesLinearlyInServers(t *testing.T) {
	thpt := func(servers int) float64 {
		s, err := NewConventionalRackSim(servers, 6, SimConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunSuite(30, nil); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		return float64(st.Completed) / (st.MakespanS / 60)
	}
	one, three := thpt(1), thpt(3)
	if three < one*2.8 || three > one*3.2 {
		t.Fatalf("1→3 servers: %.1f → %.1f func/min, want ≈3x (independent servers)", one, three)
	}
}

func TestGPIOAuditLogTracksJobCycles(t *testing.T) {
	s, err := NewMicroFaaSSim(3, SimConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunSuite(2, []string{"FloatOps", "RegExMatch"}); err != nil {
		t.Fatal(err)
	}
	coll := s.Orch.Collector()
	jobs := coll.Len()
	// Under the paper's policy every job is one PWR_BUT press: the audit
	// log must show exactly `jobs` power-ons across the cluster, and three
	// transitions per job (off→booting→busy→off).
	presses := 0
	for _, id := range s.Orch.Workers() {
		presses += powerOns(s.GPIO, id)
	}
	if presses != jobs {
		t.Fatalf("%d PWR_BUT presses for %d jobs", presses, jobs)
	}
	if got := len(s.GPIO.Events()); got != 3*jobs {
		t.Fatalf("%d transitions for %d jobs, want %d", got, jobs, 3*jobs)
	}
	// Every worker ends powered off.
	for _, id := range s.Orch.Workers() {
		if last, ok := lastEvent(s.GPIO, id); ok && last.To.String() != "off" {
			t.Fatalf("%s ended in state %v", id, last.To)
		}
	}
}

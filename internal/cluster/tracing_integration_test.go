package cluster

import (
	"math"
	"reflect"
	"testing"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/node"
	"microfaas/internal/power"
	"microfaas/internal/tracing"
)

// TestTracingDoesNotPerturbSimulation is the bit-identical guarantee:
// the tracer never draws randomness and never schedules events, so a
// seeded run's collected records must be byte-for-byte the same with
// tracing off (nil) and on — across several seeds, with the failure
// path exercised so retry/fault instrumentation is covered too.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		run := func(tr *tracing.Tracer) interface{} {
			s, err := NewMicroFaaSSim(4, SimConfig{
				Seed:          seed,
				BoardConfig:   node.BoardConfig{Faults: node.FaultPolicy{ErrorProb: 0.15}},
				AttemptPolicy: core.AttemptPolicy{MaxAttempts: 3, JobTimeout: 2 * time.Minute},
				Tracer:        tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			coll, err := s.RunSuite(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			return coll.Records()
		}
		plain := run(nil)
		traced := run(tracing.NewWithConfig(tracing.Config{}))
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("seed %d: tracing changed the seeded run's records", seed)
		}
	}
}

// TestSimTraceSumsToLatencyAndEnergy is the tracing acceptance check:
// for every committed trace of a seeded MicroFaaS sim run, the phase
// latencies (plus any unattributed gap) must sum to the invocation's
// end-to-end latency exactly, and the phase joules must match the
// energy reconstructed from the collector's record and the calibrated
// SBC power model within 1% — the critical path accounted for both
// ways.
func TestSimTraceSumsToLatencyAndEnergy(t *testing.T) {
	tr := tracing.NewWithConfig(tracing.Config{})
	s, err := NewMicroFaaSSim(8, SimConfig{Seed: 7, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := s.RunSuite(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	records := coll.Records()
	byJob := map[int64]int{}
	for i, r := range records {
		byJob[r.JobID] = i
	}
	traces := tr.Traces()
	if len(traces) != len(records) {
		t.Fatalf("traces %d != records %d", len(traces), len(records))
	}

	sbc := power.DefaultSBCModel()
	for _, x := range traces {
		sum := tracing.Summarize(x)
		i, ok := byJob[sum.Job]
		if !ok {
			t.Fatalf("trace %v for unknown job %d", x.ID, sum.Job)
		}
		r := records[i]

		// Latency: the root must cover submit→finish, and the phases must
		// telescope to it with nothing unattributed on the clean path.
		if wantLat := r.Finished - r.Submitted; sum.Latency != wantLat {
			t.Fatalf("job %d: trace latency %v != record latency %v", sum.Job, sum.Latency, wantLat)
		}
		var phaseTotal time.Duration
		var phaseJoules float64
		for _, p := range sum.Phases {
			phaseTotal += p.Duration
			phaseJoules += p.EnergyJ
		}
		if phaseTotal+sum.Unattributed != sum.Latency {
			t.Fatalf("job %d: phases %v + unattributed %v != latency %v",
				sum.Job, phaseTotal, sum.Unattributed, sum.Latency)
		}
		if sum.Unattributed != 0 {
			t.Fatalf("job %d: clean invocation left %v unattributed", sum.Job, sum.Unattributed)
		}

		// Energy: boot at boot draw plus overhead+exec at busy draw, the
		// same arithmetic the meter applies, within the 1% tolerance.
		want := r.Boot.Seconds()*float64(sbc.Power(power.Booting)) +
			(r.Overhead+r.Exec).Seconds()*float64(sbc.Power(power.Busy))
		if phaseJoules != sum.EnergyJ {
			t.Fatalf("job %d: phase joules %v != summary joules %v", sum.Job, phaseJoules, sum.EnergyJ)
		}
		if diff := math.Abs(sum.EnergyJ - want); diff > 0.01*want {
			t.Fatalf("job %d: trace %.6f J vs record-derived %.6f J (%.2f%% off)",
				sum.Job, sum.EnergyJ, want, 100*diff/want)
		}
	}
}

// TestSimTraceRetryFaultShape runs a failure-heavy seed and checks that
// retried invocations carry the full forensic shape: a fault span per
// failed attempt, a retry span per re-queue, attempts counted on the
// root, and per-attempt boot/exec spans.
func TestSimTraceRetryFaultShape(t *testing.T) {
	tr := tracing.NewWithConfig(tracing.Config{})
	s, err := NewMicroFaaSSim(4, SimConfig{
		Seed:          11,
		BoardConfig:   node.BoardConfig{Faults: node.FaultPolicy{ErrorProb: 0.3}},
		AttemptPolicy: core.AttemptPolicy{MaxAttempts: 3, RetryBase: 10 * time.Millisecond, JobTimeout: 2 * time.Minute},
		Tracer:        tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunSuite(2, nil); err != nil {
		t.Fatal(err)
	}
	var sawRetry bool
	for _, x := range tr.Traces() {
		counts := map[tracing.Phase]int{}
		for _, sp := range x.Spans {
			counts[sp.Phase]++
		}
		if x.Root.Attempt == 0 {
			if counts[tracing.PhaseRetry] != 0 {
				t.Fatalf("job %d: single-attempt trace has retry spans", x.Root.Job)
			}
			continue
		}
		sawRetry = true
		// N+1 attempts → N retries, and at least N faults (the final
		// attempt may succeed).
		if counts[tracing.PhaseRetry] != x.Root.Attempt {
			t.Fatalf("job %d: %d attempts but %d retry spans",
				x.Root.Job, x.Root.Attempt+1, counts[tracing.PhaseRetry])
		}
		if counts[tracing.PhaseFault] < x.Root.Attempt {
			t.Fatalf("job %d: %d attempts but only %d fault spans",
				x.Root.Job, x.Root.Attempt+1, counts[tracing.PhaseFault])
		}
		if counts[tracing.PhaseQueue] != x.Root.Attempt+1 || counts[tracing.PhaseExec] != x.Root.Attempt+1 {
			t.Fatalf("job %d: queue/exec spans %d/%d for %d attempts",
				x.Root.Job, counts[tracing.PhaseQueue], counts[tracing.PhaseExec], x.Root.Attempt+1)
		}
	}
	if !sawRetry {
		t.Fatal("failure-heavy run produced no retried traces; pick a different seed")
	}
}

// TestLiveTraceWirePropagation boots a real TCP cluster with tracing
// and checks the distributed path: worker-recorded boot/exec spans must
// land in the orchestrator-side tracer via the wire-propagated context,
// carry the worker's metered joules, and telescope into the end-to-end
// latency like the sim spans do.
func TestLiveTraceWirePropagation(t *testing.T) {
	tr := tracing.NewWithConfig(tracing.Config{})
	l, err := StartLive(LiveOptions{
		Workers: 2, Seed: 3, Meter: true, Tracer: tr,
		LiveBoardConfig: node.LiveBoardConfig{BootDelay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const jobs = 4
	for i := 0; i < jobs; i++ {
		l.Orch.Submit("CascSHA", []byte(`{"rounds":3,"seed":"x"}`))
	}
	l.Orch.Quiesce()

	traces := tr.Traces()
	if len(traces) != jobs {
		t.Fatalf("traces = %d, want %d", len(traces), jobs)
	}
	for _, x := range traces {
		counts := map[tracing.Phase]int{}
		var bootDur time.Duration
		var execJ float64
		for _, sp := range x.Spans {
			counts[sp.Phase]++
			switch sp.Phase {
			case tracing.PhaseBoot:
				bootDur += sp.Duration()
				if sp.Worker == "" {
					t.Fatalf("job %d: boot span without worker id", x.Root.Job)
				}
			case tracing.PhaseExec:
				execJ += sp.EnergyJ
			}
		}
		for _, p := range []tracing.Phase{tracing.PhaseQueue, tracing.PhaseBoot, tracing.PhaseExec, tracing.PhaseSettle} {
			if counts[p] == 0 {
				t.Fatalf("job %d: missing %s span (got %v)", x.Root.Job, p, counts)
			}
		}
		if bootDur < 15*time.Millisecond {
			t.Fatalf("job %d: boot span %v does not cover the 20ms boot delay", x.Root.Job, bootDur)
		}
		if execJ <= 0 {
			t.Fatalf("job %d: exec span carries no metered energy", x.Root.Job)
		}
		sum := tracing.Summarize(x)
		var phaseTotal time.Duration
		for _, p := range sum.Phases {
			phaseTotal += p.Duration
		}
		if phaseTotal+sum.Unattributed != sum.Latency {
			t.Fatalf("job %d: phases %v + unattributed %v != latency %v",
				sum.Job, phaseTotal, sum.Unattributed, sum.Latency)
		}
	}
}

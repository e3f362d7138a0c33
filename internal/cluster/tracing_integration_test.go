package cluster

import (
	"math"
	"reflect"
	"testing"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/model"
	"microfaas/internal/node"
	"microfaas/internal/power"
	"microfaas/internal/proto"
	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
)

// meteredJoules is every attempt's Result.Joules, as the per-function
// energy counters bank them.
func meteredJoules(tel *telemetry.Telemetry) float64 {
	var sum float64
	for _, f := range model.Functions() {
		sum += tel.Registry().Counter("microfaas_function_energy_joules_total", "", "function", f.Name).Value()
	}
	return sum
}

// viewJoules sums every phase's joules over the traces.
func viewJoules(traces []trace.Trace) float64 {
	var sum float64
	for _, tr := range traces {
		sum += tr.Breakdown().EnergyJ
	}
	return sum
}

// runFaultySim runs jobs through a seeded 4-board sim whose boards fail
// attempts with probability errProb, and returns the submitted job ids
// and the orchestrator's collector.
func runFaultySim(t *testing.T, seed int64, errProb float64, maxAttempts, jobs int) (map[int64]bool, *trace.Collector) {
	t.Helper()
	s, err := NewMicroFaaSSim(4, SimConfig{
		Seed:          seed,
		BoardConfig:   node.BoardConfig{Faults: node.FaultPolicy{ErrorProb: errProb}},
		AttemptPolicy: core.AttemptPolicy{MaxAttempts: maxAttempts, JobTimeout: 2 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	submitted := map[int64]bool{}
	for i := 0; i < jobs; i++ {
		submitted[s.Orch.Submit(model.Functions()[i%len(model.Functions())].Name, nil)] = true
	}
	s.Engine.RunAll()
	return submitted, s.Orch.Collector()
}

// TestSimTracesEveryJob: a seeded sim, retries and all, has exactly one
// trace per submitted job (nothing is sampled away), and the same seed
// renders the same traces.
func TestSimTracesEveryJob(t *testing.T) {
	submitted, coll := runFaultySim(t, 3, 0.15, 3, 60)
	traces := trace.Traces(coll)
	if len(traces) != len(submitted) {
		t.Fatalf("%d traces for %d submitted jobs", len(traces), len(submitted))
	}
	for _, tr := range traces {
		if !submitted[tr.Root.Job] {
			t.Fatalf("trace for job %d, which was not submitted", tr.Root.Job)
		}
		delete(submitted, tr.Root.Job)
	}
	_, again := runFaultySim(t, 3, 0.15, 3, 60)
	if !reflect.DeepEqual(trace.Traces(again), traces) {
		t.Fatal("the same seed rendered different traces")
	}
}

// TestSimTracesFailedJobs: a job whose every attempt failed is traced
// like any other, its root naming the final error and each failed
// attempt ending in a fault marker that carries its error.
func TestSimTracesFailedJobs(t *testing.T) {
	_, coll := runFaultySim(t, 5, 0.3, 1, 60)
	failed := 0
	for _, r := range coll.Records() {
		if r.Err == "" {
			continue
		}
		failed++
		tr, ok := trace.TraceOf(r.JobID, coll)
		if !ok {
			t.Fatalf("failed job %d has no trace", r.JobID)
		}
		if tr.Root.Err != r.Err {
			t.Fatalf("job %d: root error %q, record error %q", r.JobID, tr.Root.Err, r.Err)
		}
		last := tr.Spans[len(tr.Spans)-1]
		if last.Phase != trace.PhaseFault || last.Err != r.Err {
			t.Fatalf("job %d: last span %+v, want a fault marker with %q", r.JobID, last, r.Err)
		}
	}
	if failed == 0 {
		t.Fatal("a 30% fault rate failed no job; pick a different seed")
	}
}

// TestSimTraceSumsToLatencyAndEnergy is the view's acceptance check on a
// seeded MicroFaaS sim: every job's phases (plus any unattributed gap)
// sum to its end-to-end latency exactly, the view's joules sum to every
// attempt's metered joules within 1e-6, and each job's joules match the
// energy reconstructed from its record and the calibrated SBC power model
// within 1%.
func TestSimTraceSumsToLatencyAndEnergy(t *testing.T) {
	tel := telemetry.New()
	s, err := NewMicroFaaSSim(8, SimConfig{Seed: 7, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := s.RunSuite(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	records := coll.Records()
	byJob := map[int64]trace.Record{}
	for _, r := range records {
		byJob[r.JobID] = r
	}
	traces := trace.Traces(coll)
	if len(traces) != len(records) {
		t.Fatalf("traces %d != records %d", len(traces), len(records))
	}

	sbc := power.DefaultSBCModel()
	for _, x := range traces {
		sum := x.Breakdown()
		r, ok := byJob[sum.Job]
		if !ok {
			t.Fatalf("trace for unknown job %d", sum.Job)
		}
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
		if phaseJoules != sum.EnergyJ {
			t.Fatalf("job %d: phase joules %v != summary joules %v", sum.Job, phaseJoules, sum.EnergyJ)
		}
		// Boot at boot draw plus overhead+exec at busy draw, the same
		// arithmetic the meter applies.
		want := r.Boot.Seconds()*float64(sbc.Power(power.Booting)) +
			(r.Overhead+r.Exec).Seconds()*float64(sbc.Power(power.Busy))
		if diff := math.Abs(sum.EnergyJ - want); diff > 0.01*want {
			t.Fatalf("job %d: trace %.6f J vs record-derived %.6f J (%.2f%% off)",
				sum.Job, sum.EnergyJ, want, 100*diff/want)
		}
		wantBoot := r.Boot.Seconds() * float64(sbc.Power(power.Booting))
		if boot := sum.Phases[1]; boot.Phase != trace.PhaseBoot || math.Abs(boot.EnergyJ-wantBoot) > 0.01*wantBoot {
			t.Fatalf("job %d: boot phase %+v, want %.6f J", sum.Job, boot, wantBoot)
		}
	}
	if got, want := viewJoules(traces), meteredJoules(tel); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("the view's joules %.9f vs the attempts' metered %.9f", got, want)
	}
}

// TestSimTraceRetryFaultShape runs a failure-heavy seed and checks that
// retried invocations render the full forensic shape: a fault marker per
// failed attempt, a retry wait per re-queue, attempts counted on the
// root, and per-attempt boot and exec — with every failed attempt's
// joules in the view.
func TestSimTraceRetryFaultShape(t *testing.T) {
	tel := telemetry.New()
	s, err := NewMicroFaaSSim(4, SimConfig{
		Seed:          11,
		BoardConfig:   node.BoardConfig{Faults: node.FaultPolicy{ErrorProb: 0.3}},
		AttemptPolicy: core.AttemptPolicy{MaxAttempts: 3, RetryBase: 10 * time.Millisecond, JobTimeout: 2 * time.Minute},
		Telemetry:     tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := s.RunSuite(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	traces := trace.Traces(coll)
	var sawRetry bool
	for _, x := range traces {
		counts := map[trace.Phase]int{}
		for _, sp := range x.Spans {
			counts[sp.Phase]++
		}
		if b := x.Breakdown(); b.Unattributed != 0 {
			t.Fatalf("job %d: %v unattributed", x.Root.Job, b.Unattributed)
		}
		if counts[trace.PhaseQueue] != 1 {
			t.Fatalf("job %d: %d queue waits", x.Root.Job, counts[trace.PhaseQueue])
		}
		if x.Root.Attempt == 0 {
			if counts[trace.PhaseRetry] != 0 {
				t.Fatalf("job %d: single-attempt trace has retry spans", x.Root.Job)
			}
			continue
		}
		sawRetry = true
		// N+1 attempts → N retries, and at least N faults (the final
		// attempt may succeed).
		if counts[trace.PhaseRetry] != x.Root.Attempt {
			t.Fatalf("job %d: %d attempts but %d retry spans",
				x.Root.Job, x.Root.Attempt+1, counts[trace.PhaseRetry])
		}
		if counts[trace.PhaseFault] < x.Root.Attempt {
			t.Fatalf("job %d: %d attempts but only %d fault spans",
				x.Root.Job, x.Root.Attempt+1, counts[trace.PhaseFault])
		}
		if counts[trace.PhaseBoot] != x.Root.Attempt+1 || counts[trace.PhaseExec] != x.Root.Attempt+1 {
			t.Fatalf("job %d: boot/exec spans %d/%d for %d attempts",
				x.Root.Job, counts[trace.PhaseBoot], counts[trace.PhaseExec], x.Root.Attempt+1)
		}
	}
	if !sawRetry {
		t.Fatal("failure-heavy run produced no retried traces; pick a different seed")
	}
	if got, want := viewJoules(traces), meteredJoules(tel); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("the view's joules %.9f vs the attempts' metered %.9f", got, want)
	}
}

// TestLiveTraceWirePropagation boots a real TCP cluster and checks the
// live path: each job renders its worker's boot and exec with the
// worker's metered joules, the phases telescope into the end-to-end
// latency, and the request frame carries no trace strings — the worker
// reports its timings in the reply, and nothing else crosses the wire.
func TestLiveTraceWirePropagation(t *testing.T) {
	l, err := StartLive(LiveOptions{
		Workers: 2, Seed: 3, Meter: true,
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

	traces := trace.Traces(l.Orch.Collector())
	if len(traces) != jobs {
		t.Fatalf("traces = %d, want %d", len(traces), jobs)
	}
	var joules float64
	for _, r := range l.Orch.Collector().Records() {
		joules += r.Joules
	}
	for _, x := range traces {
		counts := map[trace.Phase]int{}
		var bootDur time.Duration
		var bootJ, execJ float64
		for _, sp := range x.Spans {
			counts[sp.Phase]++
			switch sp.Phase {
			case trace.PhaseBoot:
				bootDur += sp.Duration()
				bootJ += sp.EnergyJ
				if sp.Worker == "" {
					t.Fatalf("job %d: boot span without worker id", x.Root.Job)
				}
			case trace.PhaseExec:
				execJ += sp.EnergyJ
			}
		}
		for _, p := range []trace.Phase{trace.PhaseQueue, trace.PhaseBoot, trace.PhaseExec, trace.PhaseSettle} {
			if counts[p] == 0 {
				t.Fatalf("job %d: missing %s span (got %v)", x.Root.Job, p, counts)
			}
		}
		if bootDur < 15*time.Millisecond {
			t.Fatalf("job %d: boot span %v does not cover the 20ms boot delay", x.Root.Job, bootDur)
		}
		if bootJ <= 0 || execJ <= 0 {
			t.Fatalf("job %d: boot %.6f J, exec %.6f J: a phase carries no metered energy", x.Root.Job, bootJ, execJ)
		}
		sum := x.Breakdown()
		var phaseTotal time.Duration
		for _, p := range sum.Phases {
			phaseTotal += p.Duration
		}
		if phaseTotal+sum.Unattributed != sum.Latency {
			t.Fatalf("job %d: phases %v + unattributed %v != latency %v",
				sum.Job, phaseTotal, sum.Unattributed, sum.Latency)
		}
	}
	if got := viewJoules(traces); math.Abs(got-joules) > 1e-6*joules {
		t.Fatalf("the view's joules %.9f vs the records' %.9f", got, joules)
	}
	req := reflect.TypeOf(proto.Request{})
	for i := 0; i < req.NumField(); i++ {
		if f := req.Field(i); f.Type.Kind() == reflect.String && f.Name != "Function" {
			t.Fatalf("the request frame carries string %s beside the function name", f.Name)
		}
	}
}

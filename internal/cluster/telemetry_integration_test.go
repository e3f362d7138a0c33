package cluster

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/gateway"
	"microfaas/internal/model"
	"microfaas/internal/node"
	"microfaas/internal/power"
	"microfaas/internal/shard"
	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
)

// TestSimMetricsEnergyMatchesTrace is the acceptance check for the
// telemetry subsystem: the per-function joules counters scraped from a
// sim-mode /metrics endpoint must agree within 1% with the energy derived
// offline from the trace collector's records and the calibrated SBC power
// model — the paper's J/function computed two independent ways.
func TestSimMetricsEnergyMatchesTrace(t *testing.T) {
	tel := telemetry.New()
	s, err := NewMicroFaaSSim(8, SimConfig{Seed: 7, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := s.RunSuite(2, nil)
	if err != nil {
		t.Fatal(err)
	}

	plane, err := shard.NewPlane(s.Orch.Runtime(), []*core.Orchestrator{s.Orch}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New(plane, gateway.Options{Mode: "sim"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics → %d", resp.StatusCode)
	}
	samples, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("sim-mode exposition does not parse: %v", err)
	}

	// Reconstruct each function's joules from the trace: every ARM cycle
	// spends Boot at boot draw and Overhead+Exec at busy draw.
	sbc := power.DefaultSBCModel()
	want := map[string]float64{}
	for _, r := range coll.Records() {
		boot := r.Boot.Seconds() * float64(sbc.Power(power.Booting))
		busy := (r.Overhead + r.Exec).Seconds() * float64(sbc.Power(power.Busy))
		want[r.Function] += boot + busy
	}
	if len(want) != len(model.Functions()) {
		t.Fatalf("trace covers %d functions, want %d", len(want), len(model.Functions()))
	}
	for fn, w := range want {
		got, ok := samples.Value("microfaas_function_energy_joules_total", "function", fn)
		if !ok {
			t.Fatalf("no energy series for %s", fn)
		}
		if diff := math.Abs(got - w); diff > 0.01*w {
			t.Fatalf("%s: metrics %.4f J vs trace %.4f J (%.2f%% off)",
				fn, got, w, 100*diff/w)
		}
	}

	// The whole-cluster counter must cover at least the attributed energy
	// (it also meters off/idle standby draw the functions are not charged
	// for).
	var attributed float64
	for _, w := range want {
		attributed += w
	}
	cluster, ok := samples.Value("microfaas_cluster_energy_joules_total")
	if !ok || cluster < attributed {
		t.Fatalf("cluster energy %.4f J < attributed %.4f J", cluster, attributed)
	}

	// And /healthz reports sim mode.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h gateway.HealthResponse
	if err := jsonDecode(hresp, &h); err != nil {
		t.Fatal(err)
	}
	if h.Mode != "sim" || h.Status != "ok" {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestTelemetryDoesNotPerturbSimulation: enabling telemetry must not
// consume RNG draws or schedule events, so a seeded run's trace is
// bit-identical with and without it — the zero-overhead-when-disabled
// guarantee read from the other side.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	run := func(tel *telemetry.Telemetry) interface{} {
		s, err := NewMicroFaaSSim(4, SimConfig{
			Seed:          11,
			BoardConfig:   node.BoardConfig{Faults: node.FaultPolicy{ErrorProb: 0.15}},
			AttemptPolicy: core.AttemptPolicy{MaxAttempts: 3, JobTimeout: 2 * time.Minute},
			Telemetry:     tel,
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
	instrumented := run(telemetry.New())
	if !reflect.DeepEqual(plain, instrumented) {
		t.Fatal("telemetry changed the seeded run's trace")
	}
}

// TestLiveMetricsEnergyMatchesTrace cross-checks the live path: joules
// attributed per function must track the number reconstructed from the
// trace records at busy draw. The trace stamps Started at OP dispatch and
// Finished at result arrival — a strict superset of the worker's metered
// busy window — so the metrics value is bounded above by the trace-derived
// one and must come close once a real boot delay dominates the
// microseconds of dispatch slop.
func TestLiveMetricsEnergyMatchesTrace(t *testing.T) {
	tel := telemetry.New()
	l, err := StartLive(LiveOptions{
		Workers: 2, Seed: 3, Meter: true, Telemetry: tel,
		LiveBoardConfig: node.LiveBoardConfig{BootDelay: 25 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 6; i++ {
		l.Orch.Submit("CascSHA", []byte(`{"rounds":3,"seed":"x"}`))
	}
	l.Orch.Quiesce()

	sbc := power.DefaultSBCModel()
	var want float64
	for _, r := range l.Orch.Collector().Records() {
		want += (r.Finished - r.Started).Seconds() * float64(sbc.Power(power.Busy))
	}
	got := tel.Registry().Counter("microfaas_function_energy_joules_total",
		"", "function", "CascSHA").Value()
	if want <= 0 || got <= 0 || got > want || got < 0.9*want {
		t.Fatalf("metrics %.6f J vs trace-bounded %.6f J", got, want)
	}
}

// jsonDecode decodes an HTTP response body as JSON.
func jsonDecode(resp *http.Response, v interface{}) error {
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestLiveRetryRowsCarryTheAttempt holds a live retry to its rows: a job
// whose first attempt failed on an injected fault and whose retry
// succeeded renders, through its attempt-1 row, an attempt-0 settle
// marked "error" and attempt-1 boot, exec and settle spans on the worker
// that row names.
func TestLiveRetryRowsCarryTheAttempt(t *testing.T) {
	l, err := StartLive(LiveOptions{
		Workers: 2, Seed: 5,
		AttemptPolicy:   core.AttemptPolicy{MaxAttempts: 3},
		LiveBoardConfig: node.LiveBoardConfig{Faults: node.FaultPolicy{Seed: 7, ErrorProb: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	for i := 0; i < 40; i++ {
		l.Orch.Submit("RegExMatch", []byte(`{"pattern":"a+","text":"aaa"}`))
	}
	l.Orch.Quiesce()

	retried := 0
	for _, r := range l.Orch.Collector().Records() {
		if r.Attempt != 1 || r.Err != "" {
			continue
		}
		x, ok := trace.TraceOf(r.JobID, l.Orch.Collector())
		if !ok {
			t.Fatalf("job %d: no trace", r.JobID)
		}
		settled := map[int]string{}
		for _, sp := range x.Spans {
			if sp.Phase == trace.PhaseSettle {
				settled[sp.Attempt] = sp.Detail
			}
		}
		if settled[0] != "error" || settled[1] != "ok" {
			continue
		}
		retried++
		if x.Root.Attempt != 1 || x.Root.Worker != r.Worker {
			t.Fatalf("job %d: root %+v, want attempt 1 on %s", r.JobID, x.Root, r.Worker)
		}
		for _, sp := range x.Spans {
			onWorker := sp.Phase == trace.PhaseBoot || sp.Phase == trace.PhaseExec || sp.Phase == trace.PhaseSettle
			if sp.Attempt == 1 && onWorker && sp.Worker != r.Worker {
				t.Fatalf("job %d attempt 1: %s span %+v, want one on %s", r.JobID, sp.Phase, sp, r.Worker)
			}
		}
	}
	if retried == 0 {
		t.Fatal("no job failed its first attempt and succeeded its second")
	}
}

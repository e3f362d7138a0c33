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

// TestLiveRetryEventsCarryTheAttempt holds a live worker's own events to
// the attempt the request frame carries: a job whose first attempt failed
// on an injected fault and whose retry succeeded shows attempt-1 boot and
// exec events on the worker its attempt-1 queue, assign and settle events
// name.
func TestLiveRetryEventsCarryTheAttempt(t *testing.T) {
	tel := telemetry.New()
	l, err := StartLive(LiveOptions{
		Workers: 2, Seed: 5, Telemetry: tel,
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

	type key struct {
		job     int64
		attempt int
	}
	byAttempt := map[key]map[string]telemetry.Event{}
	for _, ev := range tel.Events().Since(-1, 0) {
		k := key{ev.Job, ev.Attempt}
		if byAttempt[k] == nil {
			byAttempt[k] = map[string]telemetry.Event{}
		}
		byAttempt[k][ev.Type] = ev
	}
	retried := 0
	for k, evs := range byAttempt {
		if k.attempt != 1 || evs[telemetry.EventSettle].Detail != "ok" {
			continue
		}
		if first := byAttempt[key{k.job, 0}][telemetry.EventSettle]; first.Detail != "error" {
			continue
		}
		retried++
		worker := evs[telemetry.EventAssign].Worker
		for _, typ := range []string{telemetry.EventQueue, telemetry.EventAssign, telemetry.EventBoot, telemetry.EventExec, telemetry.EventSettle} {
			if ev, ok := evs[typ]; !ok || ev.Worker != worker {
				t.Fatalf("job %d attempt 1: %s event %+v, want one on %s", k.job, typ, ev, worker)
			}
		}
	}
	if retried == 0 {
		t.Fatal("no job failed its first attempt and succeeded its second")
	}
}

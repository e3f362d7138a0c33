package gateway

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"microfaas/internal/cluster"
	"microfaas/internal/telemetry"
	"microfaas/internal/version"
)

// startTelemetryGateway boots a telemetry-enabled live cluster with a
// gateway in front.
func startTelemetryGateway(t *testing.T) string {
	t.Helper()
	tel := telemetry.New()
	l, err := cluster.StartLive(cluster.LiveOptions{Workers: 2, Seed: 9, Meter: true, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	gw := front(t, l.Orch, Options{})
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	return "http://" + addr
}

func TestHealthzJSON(t *testing.T) {
	base, _ := startGateway(t)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz → %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Mode != "live" || h.Version != version.Version {
		t.Fatalf("healthz = %+v", h)
	}
	if h.UptimeS < 0 {
		t.Fatalf("uptime went backwards: %+v", h)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	base := startTelemetryGateway(t)
	if _, out := postInvoke(t, base, `{"function":"CascSHA","args":{"rounds":3,"seed":"m"}}`); out.Error != "" {
		t.Fatalf("invoke: %+v", out)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics → %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.TextContentType {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParseText(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	if got, ok := samples.Value("microfaas_jobs_submitted_total"); !ok || got != 1 {
		t.Fatalf("jobs_submitted = %v (present %v)", got, ok)
	}
	if got, ok := samples.Value("microfaas_function_invocations_total",
		"function", "CascSHA", "result", "ok"); !ok || got != 1 {
		t.Fatalf("invocations{CascSHA,ok} = %v (present %v)", got, ok)
	}
	if got, ok := samples.Value("microfaas_function_energy_joules_total", "function", "CascSHA"); !ok || got <= 0 {
		t.Fatalf("no energy attributed: %v (present %v)", got, ok)
	}
	if got := samples.Sum("microfaas_worker_boots_total"); got != 1 {
		t.Fatalf("boots = %v", got)
	}
	// The gateway's own families are there from the start, at zero.
	for _, name := range []string{"microfaas_gateway_async_unfetched", "microfaas_gateway_polls_parked"} {
		if got, ok := samples.Value(name); !ok || got != 0 {
			t.Fatalf("%s = %v (present %v)", name, got, ok)
		}
	}
	for _, state := range []string{"pending", "done"} {
		if got, ok := samples.Value("microfaas_gateway_async_expired_total", "state", state); !ok || got != 0 {
			t.Fatalf("async_expired_total{%s} = %v (present %v)", state, got, ok)
		}
	}
}

// TestMetricsDisabled: with cluster telemetry off, /metrics still answers
// with the plane's and the gateway's own families and no cluster family.
func TestMetricsDisabled(t *testing.T) {
	base, _ := startGateway(t)
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := telemetry.ParseText(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics on plain gateway → %d, %v", resp.StatusCode, err)
	}
	if _, ok := samples.Value("microfaas_gateway_polls_parked"); !ok {
		t.Fatal("/metrics lacks the gateway's own families")
	}
	if _, ok := samples.Value("microfaas_jobs_pending"); ok {
		t.Fatal("/metrics serves a cluster family with telemetry off")
	}
}

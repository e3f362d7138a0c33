package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/gateway"
	"microfaas/internal/powermgr"
	"microfaas/internal/telemetry"
)

// startManagedStack boots a power-managed live cluster (telemetry on) with
// a gateway and aims a client at it.
func startManagedStack(t *testing.T) (*client, *strings.Builder) {
	t.Helper()
	tel := telemetry.New()
	l, err := cluster.StartLive(cluster.LiveOptions{
		Workers:   2,
		Seed:      4,
		Meter:     true,
		Telemetry: tel,
		Power:     &powermgr.Policy{IdleTimeout: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	c, sb := serve(t, planeOf(t, l.Orch), gateway.Options{})
	c.interval, c.iterations = 10*time.Millisecond, 1
	return c, sb
}

func TestPowerCommand(t *testing.T) {
	c, out := startManagedStack(t)
	if err := c.run([]string{"power"}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{`"powered"`, `"nodes"`, `"live-000"`, `"off"`} {
		if !strings.Contains(got, want) {
			t.Fatalf("power output missing %s:\n%s", want, got)
		}
	}
	out.Reset()
	if err := c.run([]string{"power", "cap", "1.96"}); err != nil {
		t.Fatal(err)
	}
	got = out.String()
	if !strings.Contains(got, `"cap_w": 1.96`) || !strings.Contains(got, `"max_powered": 1`) {
		t.Fatalf("power cap output = %s", got)
	}
}

func TestPowerCommandUsage(t *testing.T) {
	c, _ := startManagedStack(t)
	if err := c.run([]string{"power", "cap"}); err == nil {
		t.Fatal("power cap without a wattage accepted")
	}
	if err := c.run([]string{"power", "cap", "lots"}); err == nil {
		t.Fatal("non-numeric wattage accepted")
	}
	if err := c.run([]string{"power", "cap", "-2"}); err == nil {
		t.Fatal("negative wattage accepted by the gateway")
	}
}

// TestTopWorkerRowsFromMetricsSnapshot pins the bugfix for stale top rows:
// the per-worker busy/queue/power columns must come from the /metrics
// snapshot, not from a second /workers fetch that races it. The fake
// gateway serves metrics that say w0 is busy with three jobs queued while
// its /workers endpoint still claims the worker is idle — top must trust
// the metrics.
func TestTopWorkerRowsFromMetricsSnapshot(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `microfaas_jobs_pending 3
microfaas_function_invocations_total{function="CascSHA",result="ok"} 1
microfaas_worker_busy{worker="w0"} 1
microfaas_worker_busy{worker="w1"} 0
microfaas_queue_depth{worker="w0"} 3
microfaas_queue_depth{worker="w1"} 0
microfaas_worker_powered{worker="w0"} 1
microfaas_worker_powered{worker="w1"} 0
`)
	})
	mux.HandleFunc("/workers", func(w http.ResponseWriter, r *http.Request) {
		// Stale view: both workers idle with empty queues.
		fmt.Fprint(w, `[{"id":"w0","breaker":"closed","queue_depth":0,"busy":false},
			{"id":"w1","breaker":"open","queue_depth":9,"busy":true}]`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	var sb strings.Builder
	c := &client{base: srv.URL, http: srv.Client(), out: &sb, iterations: 1}
	if err := c.run([]string{"top"}); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	// Gauge truth wins: w0 is busy with q3 and powered on, w1 idle with q0
	// and powered off — regardless of what /workers claimed. Breaker state
	// is the one column /workers still provides.
	for _, want := range []string{"w0=closed,busy,on(q3)", "w1=open,off(q0)"} {
		if !strings.Contains(got, want) {
			t.Fatalf("top output missing %q:\n%s", want, got)
		}
	}
}

// TestTopManagedCluster drives top end-to-end against a real managed
// cluster: the summary line must carry the powered gauge and every worker
// row an on/off power state.
func TestTopManagedCluster(t *testing.T) {
	c, out := startManagedStack(t)
	if err := c.run([]string{"invoke", "CascSHA", `{"rounds":2,"seed":"pmtop"}`}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := c.run([]string{"top"}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"powered 1", "live-000", ",on(q", ",off(q"} {
		if !strings.Contains(got, want) {
			t.Fatalf("top output missing %q:\n%s", want, got)
		}
	}
}

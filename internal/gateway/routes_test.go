package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/forecast"
	"microfaas/internal/powermgr"
	"microfaas/internal/telemetry"
	"microfaas/internal/tsdb"
)

// contractRoute is one row of the package doc's route table: a method the
// route serves, an instance of its path, the Allow header a wrong method
// gets back, and the JSON 404 reason it answers on a gateway without its
// backing ("" for a route that needs none).
type contractRoute struct {
	method, path, allow, off string
}

// contractRoutes lists every documented route in the package doc's order.
// The mux lists HEAD wherever GET is, so /jobs/{id}'s Allow names it too,
// though its HEAD then refuses.
func contractRoutes(job string) []contractRoute {
	const (
		get, post, getPost = "GET, HEAD", "POST", "GET, HEAD, POST"
		noPower            = "power management disabled on this cluster"
		noTSDB             = "time-series store disabled on this gateway"
	)
	return []contractRoute{
		{"POST", "/invoke", post, ""},
		{"GET", "/jobs/1", get, ""},
		{"GET", "/functions", get, ""},
		{"GET", "/workers", get, ""},
		{"GET", "/stats", get, ""},
		{"GET", "/power", get, noPower},
		{"POST", "/power/cap", post, noPower},
		{"GET", "/forecast", get, "prediction disabled on this cluster"},
		{"GET", "/budgets", getPost, ""},
		{"POST", "/budgets", getPost, ""},
		{"GET", "/healthz", get, ""},
		{"GET", "/metrics", get, ""},
		{"GET", "/query?metric=microfaas_jobs_submitted_total", get, noTSDB},
		{"GET", "/slo", get, noTSDB},
		{"GET", "/alerts", get, noTSDB},
		{"GET", "/traces", get, ""},
		{"GET", "/traces/" + job, get, ""},
		{"GET", "/shards", get, ""},
	}
}

// wrongMethod is a method the route does not serve.
func (r contractRoute) wrongMethod() string {
	switch r.allow {
	case "GET, HEAD":
		return http.MethodPost
	case "POST":
		return http.MethodGet
	}
	return http.MethodDelete
}

// do sends one request and returns the reply with its body read.
func do(t *testing.T, method, url string, body []byte) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// startBackedGateway serves a live cluster with every route backed: a power
// manager, telemetry, a scraped store, a forecast controller and the
// profiler. It has run one invocation, whose job id — its trace's id — it
// returns.
func startBackedGateway(t *testing.T) (base string, l *cluster.Live, job string) {
	t.Helper()
	tel := telemetry.New()
	l, err := cluster.StartLive(cluster.LiveOptions{
		Workers: 2, Seed: 9, Telemetry: tel,
		Power: &powermgr.Policy{IdleTimeout: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	store := tsdb.New(tsdb.Config{})
	store.AddSource("", tel.Registry())
	ctl, err := forecast.NewController(forecast.ControllerConfig{
		Store:  store,
		Policy: forecast.Policy{Tick: time.Second, Horizon: time.Second, CycleTime: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw := front(t, l.Orch, Options{TSDB: store, Forecast: ctl, EnablePprof: true})
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	resp, invoked := postInvoke(t, srv.URL, `{"function":"CascSHA","args":{"rounds":1}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke → %d", resp.StatusCode)
	}
	l.Orch.Quiesce()
	store.Scrape(time.Second)
	return srv.URL, l, jsonInt(invoked.JobID)
}

// TestRouteContract holds the gateway to its route table: a documented
// path under a wrong method is the mux's 405 naming the methods it serves,
// HEAD answers wherever GET does except on /jobs/{id}, and a route whose
// backing is off is a JSON 404 saying what is off.
func TestRouteContract(t *testing.T) {
	base, l, traced := startBackedGateway(t)
	for _, rt := range contractRoutes(traced) {
		method := rt.wrongMethod()
		resp, body := do(t, method, base+rt.path, nil)
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != rt.allow {
			t.Errorf("%s %s → %d Allow %q, want 405 Allow %q (%s)", method, rt.path, resp.StatusCode, resp.Header.Get("Allow"), rt.allow, body)
		}
		if rt.method != http.MethodGet || strings.HasPrefix(rt.path, "/jobs/") {
			continue
		}
		resp, body = do(t, http.MethodHead, base+rt.path, nil)
		if resp.StatusCode != http.StatusOK || body != "" {
			t.Errorf("HEAD %s → %d with %d body bytes, want 200 and none", rt.path, resp.StatusCode, len(body))
		}
	}
	// A path off the table is the mux's text/plain 404, routes that were
	// deleted included.
	for _, off := range []struct{ method, path string }{{http.MethodPost, "/shards/0/drain"}, {http.MethodGet, "/events"}} {
		if resp, _ := do(t, off.method, base+off.path, nil); resp.StatusCode != http.StatusNotFound || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
			t.Errorf("%s %s → %d %q, want a text/plain 404", off.method, off.path, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
	}
	// The profiler's routes take any method.
	if resp, _ := do(t, http.MethodDelete, base+"/debug/pprof/", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("DELETE /debug/pprof/ → %d, want 200", resp.StatusCode)
	}

	// A HEAD on a finished async job neither spends nor parks on its
	// result: the GET after it still gets the result, once.
	resp, body := do(t, http.MethodPost, base+"/invoke?async=1", []byte(`{"function":"CascSHA","args":{"rounds":1}}`))
	var accepted InvokeResponse
	if err := json.Unmarshal([]byte(body), &accepted); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async invoke → %d %q (%v)", resp.StatusCode, body, err)
	}
	l.Orch.Quiesce()
	job := base + "/jobs/" + jsonInt(accepted.JobID)
	start := time.Now()
	if resp, _ := do(t, http.MethodHead, job, nil); resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodGet {
		t.Fatalf("HEAD on a finished job → %d Allow %q, want 405 Allow GET", resp.StatusCode, resp.Header.Get("Allow"))
	}
	if held := time.Since(start); held >= pollHold {
		t.Fatalf("HEAD on a job answered after %v: it parked", held)
	}
	if resp, _ := do(t, http.MethodGet, job, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after HEAD → %d, want the result", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodGet, job, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second GET → %d, want 404", resp.StatusCode)
	}

	// Without their backing, the gated routes answer a JSON 404 with the
	// reason, under the methods they serve.
	plain, _ := startGateway(t)
	for _, rt := range contractRoutes("1") {
		if rt.off == "" {
			continue
		}
		resp, body := do(t, rt.method, plain+rt.path, []byte(`{"cap_w":1}`))
		var reply struct{ Error string }
		if err := json.Unmarshal([]byte(body), &reply); err != nil || resp.StatusCode != http.StatusNotFound || reply.Error != rt.off {
			t.Errorf("%s %s off → %d %q, want 404 with error %q", rt.method, rt.path, resp.StatusCode, body, rt.off)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s off: Content-Type %q, want application/json", rt.method, rt.path, ct)
		}
	}
}

package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/core"
	"microfaas/internal/forecast"
	"microfaas/internal/telemetry"
	"microfaas/internal/tsdb"
)

// startForecastGateway boots a live cluster whose gateway carries an
// observe-only forecast controller fed by a hand-driven store.
func startForecastGateway(t *testing.T) (base string, ctl *forecast.Controller, sub *telemetry.Counter, store *tsdb.Store) {
	t.Helper()
	l, err := cluster.StartLive(cluster.LiveOptions{Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	tel := telemetry.New()
	sub = tel.Registry().Counter(tsdb.MetricSubmittedByFunction, "submissions", "function", "f")
	store = tsdb.New(tsdb.Config{})
	store.AddSource("", tel.Registry())
	ctl, err = forecast.NewController(forecast.ControllerConfig{
		Store:  store,
		Policy: forecast.Policy{Tick: time.Second, Horizon: time.Second, CycleTime: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw := front(t, l.Orch, Options{Forecast: ctl})
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	return "http://" + addr, ctl, sub, store
}

func TestForecastEndpoint(t *testing.T) {
	base, ctl, sub, store := startForecastGateway(t)
	for i := 1; i <= 10; i++ {
		sub.Add(2)
		at := time.Duration(i) * time.Second
		store.Scrape(at)
		ctl.Tick(at)
	}
	resp, err := http.Get(base + "/forecast")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /forecast → %d", resp.StatusCode)
	}
	var snap forecast.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Mode != "predictive" || snap.Ticks != 10 {
		t.Fatalf("snapshot = %+v, want predictive mode after 10 ticks", snap)
	}
	if len(snap.Functions) != 1 || snap.Functions[0].Function != "f" {
		t.Fatalf("snapshot functions = %+v, want [f]", snap.Functions)
	}
}

func TestForecastEndpointDisabled(t *testing.T) {
	base, _ := startGateway(t)
	resp, err := http.Get(base + "/forecast")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /forecast without a controller → %d, want 404", resp.StatusCode)
	}
}

// decodeLoneBudgets reads a /budgets reply from a gateway over a plane of
// one: a one-row array naming shard-00.
func decodeLoneBudgets(t *testing.T, resp *http.Response) []core.BudgetStatus {
	t.Helper()
	defer resp.Body.Close()
	var rows []shardBudgets
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Shard != "shard-00" {
		t.Fatalf("lone /budgets rows = %+v, want one shard-00 row", rows)
	}
	return rows[0].Budgets
}

func TestBudgetsEndpoint(t *testing.T) {
	base, _ := startGateway(t)
	// No budgets yet: an empty (but valid JSON) list.
	resp, err := http.Get(base + "/budgets")
	if err != nil {
		t.Fatal(err)
	}
	if rows := decodeLoneBudgets(t, resp); len(rows) != 0 {
		t.Fatalf("initial budgets = %+v, want none", rows)
	}
	// Install one budget and read it back from the POST reply.
	resp, err = http.Post(base+"/budgets", "application/json",
		bytes.NewReader([]byte(`{"function":"CascSHA","limit_j":12.5}`)))
	if err != nil {
		t.Fatal(err)
	}
	rows := decodeLoneBudgets(t, resp)
	if len(rows) != 1 || rows[0].Function != "CascSHA" || rows[0].LimitJoules != 12.5 || rows[0].Exhausted {
		t.Fatalf("budgets after POST = %+v", rows)
	}
	// Removing (limit <= 0) empties the list again.
	resp, err = http.Post(base+"/budgets", "application/json",
		bytes.NewReader([]byte(`{"function":"CascSHA","limit_j":0}`)))
	if err != nil {
		t.Fatal(err)
	}
	if rows := decodeLoneBudgets(t, resp); len(rows) != 0 {
		t.Fatalf("budgets after removal = %+v, want none", rows)
	}
	// A POST without a function name is rejected.
	resp, err = http.Post(base+"/budgets", "application/json",
		bytes.NewReader([]byte(`{"limit_j":5}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /budgets without function → %d, want 400", resp.StatusCode)
	}
	// A name the suite does not have is 404, as on /invoke, and leaves no
	// budget (and so no per-name gauges) behind.
	resp, err = http.Post(base+"/budgets", "application/json",
		bytes.NewReader([]byte(`{"function":"nope-1","limit_j":5}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /budgets for an unknown function → %d, want 404", resp.StatusCode)
	}
	if resp, err = http.Get(base + "/budgets"); err != nil {
		t.Fatal(err)
	}
	if rows := decodeLoneBudgets(t, resp); len(rows) != 0 {
		t.Fatalf("budgets after an unknown name = %+v, want none", rows)
	}
}

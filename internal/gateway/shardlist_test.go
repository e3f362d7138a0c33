package gateway

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/powermgr"
	"microfaas/internal/shard"
	"microfaas/internal/telemetry"
)

// startPlaneOfOne boots one power-managed, telemetry-enabled live
// cluster and fronts its orchestrator as a plane of one shard, the way
// microfaas-live serves it.
func startPlaneOfOne(t *testing.T) (base string, l *cluster.Live) {
	t.Helper()
	tel := telemetry.New()
	l, err := cluster.StartLive(cluster.LiveOptions{
		Workers:   2,
		Seed:      9,
		Meter:     true,
		Telemetry: tel,
		Power:     &powermgr.Policy{IdleTimeout: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	srv := httptest.NewServer(front(t, l.Orch, Options{}).Handler())
	t.Cleanup(srv.Close)
	return srv.URL, l
}

// TestLoneAndPlaneOfOneAgree holds a lone orchestrator, served as a plane
// of one, to the plane's reply shape: every merge endpoint answers with
// the one shard's rows, named "shard-00", and /shards covers it.
func TestLoneAndPlaneOfOneAgree(t *testing.T) {
	base, l := startPlaneOfOne(t)
	// Leave state behind every endpoint: completed work on a woken
	// worker, a budget, a power cap.
	for _, body := range []string{
		`{"function":"CascSHA","args":{"rounds":3,"seed":"a"}}`,
		`{"function":"FloatOps","args":{"iterations":1000}}`,
	} {
		if resp, out := postInvoke(t, base, body); resp.StatusCode != http.StatusOK || out.Error != "" {
			t.Fatalf("invoke: status %d, %+v", resp.StatusCode, out)
		}
	}
	l.Orch.Quiesce()
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s → %d", path, resp.StatusCode)
		}
	}
	post("/budgets", `{"function":"CascSHA","limit_j":12.5}`)
	post("/power/cap", `{"cap_w":3.92}`)

	for _, tc := range []struct {
		path  string
		check func(t *testing.T, v any)
	}{
		{path: "/workers", check: func(t *testing.T, v any) {
			if rows := v.([]any); len(rows) != 2 {
				t.Fatalf("workers = %v", rows)
			}
		}},
		{path: "/stats", check: func(t *testing.T, v any) {
			if st := v.(map[string]any); st["completed"] != 2.0 || st["errors"] != 0.0 || st["pending"] != 0.0 {
				t.Fatalf("stats = %v", st)
			}
		}},
		{path: "/power", check: func(t *testing.T, v any) {
			rows := v.([]any)
			if len(rows) != 1 {
				t.Fatalf("power rows = %v", rows)
			}
			// One managed shard gets the whole cap.
			if snap := rows[0].(map[string]any)["snapshot"].(map[string]any); snap["cap_w"] != 3.92 || snap["total"] != 2.0 {
				t.Fatalf("power snapshot = %v", snap)
			}
		}},
		{path: "/budgets", check: func(t *testing.T, v any) {
			rows := v.([]any)
			if len(rows) != 1 || len(rows[0].(map[string]any)["budgets"].([]any)) != 1 {
				t.Fatalf("budget rows = %v", rows)
			}
		}},
		{path: "/healthz", check: func(t *testing.T, v any) {
			h := v.(map[string]any)
			if _, named := h["shard_id"]; named || h["shard_count"] != 1.0 || h["status"] != "ok" {
				t.Fatalf("healthz = %v", h)
			}
		}},
	} {
		t.Run(tc.path, func(t *testing.T) {
			var v any
			if resp := getJSON(t, base+tc.path, &v); resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s → %d", tc.path, resp.StatusCode)
			}
			// Rows name their shard.
			raw, _ := json.Marshal(v)
			if tc.path != "/stats" && tc.path != "/healthz" && !strings.Contains(string(raw), `"shard":"shard-00"`) {
				t.Fatalf("reply does not name its shard: %s", raw)
			}
			tc.check(t, v)
		})
	}

	var statuses []shard.ShardStatus
	getJSON(t, base+"/shards", &statuses)
	if len(statuses) != 1 || statuses[0].Label != "shard-00" || statuses[0].Workers != 2 {
		t.Fatalf("/shards on a plane of one = %+v", statuses)
	}
}

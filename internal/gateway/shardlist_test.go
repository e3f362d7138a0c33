package gateway

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/core"
	"microfaas/internal/powermgr"
	"microfaas/internal/shard"
	"microfaas/internal/telemetry"
)

// startBothFronts boots one power-managed, telemetry-enabled live cluster
// and fronts its single orchestrator twice: as a lone orchestrator and as
// a plane of one shard. Both gateways read the same orchestrator, so any
// difference between their replies is the gateway's doing.
func startBothFronts(t *testing.T) (fronts map[string]string, l *cluster.Live, tel *telemetry.Telemetry) {
	t.Helper()
	tel = telemetry.New()
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
	lone, err := NewWithOptions(l.Orch, Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	plane, err := shard.NewPlane(l.Runtime, []*core.Orchestrator{l.Orch}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plane.Close)
	sharded, err := NewSharded(plane, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fronts = map[string]string{}
	for name, gw := range map[string]*Server{"lone": lone, "plane-of-one": sharded} {
		srv := httptest.NewServer(gw.Handler())
		t.Cleanup(srv.Close)
		fronts[name] = srv.URL
	}
	return fronts, l, tel
}

// stripShardNames deletes every "shard" key from a decoded JSON value —
// the one field a lone orchestrator's rows omit and a plane's carry.
func stripShardNames(v any) {
	switch x := v.(type) {
	case map[string]any:
		delete(x, "shard")
		for _, c := range x {
			stripShardNames(c)
		}
	case []any:
		for _, c := range x {
			stripShardNames(c)
		}
	}
}

// TestLoneAndPlaneOfOneAgree holds the gateway to having one code path:
// the same orchestrator fronted lone and as a one-shard plane must answer
// every merge endpoint identically, apart from the shard name on rows and
// the /shards admin routes only a plane has.
func TestLoneAndPlaneOfOneAgree(t *testing.T) {
	fronts, l, _ := startBothFronts(t)
	// Leave state behind every endpoint: completed work on a woken
	// worker, lifecycle events, a budget, a power cap.
	for _, body := range []string{
		`{"function":"CascSHA","args":{"rounds":3,"seed":"a"}}`,
		`{"function":"FloatOps","args":{"iterations":1000}}`,
	} {
		if resp, out := postInvoke(t, fronts["lone"], body); resp.StatusCode != http.StatusOK || out.Error != "" {
			t.Fatalf("invoke: status %d, %+v", resp.StatusCode, out)
		}
	}
	l.Orch.Quiesce()
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(fronts["plane-of-one"]+path, "application/json", strings.NewReader(body))
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
		path string
		// volatile names top-level keys that legitimately differ between
		// two reads; check asserts on the lone reply, so "they agree" also
		// means "they agree on the right thing".
		volatile string
		check    func(t *testing.T, lone any)
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
		{path: "/events?max=4096", check: func(t *testing.T, v any) {
			page := v.(map[string]any)
			if len(page["events"].([]any)) < 12 || page["dropped"] != 0.0 || strings.Contains(page["cursor"].(string), ",") {
				t.Fatalf("events page = %v", page)
			}
		}},
		{path: "/healthz", volatile: "uptime_s", check: func(t *testing.T, v any) {
			// Neither front names a shard id; both count one shard.
			if h := v.(map[string]any); h["shard_count"] != 1.0 || h["shard_id"] != "" || h["status"] != "ok" {
				t.Fatalf("healthz = %v", h)
			}
		}},
	} {
		t.Run(tc.path, func(t *testing.T) {
			got := map[string]any{}
			for name, base := range fronts {
				var v any
				if resp := getJSON(t, base+tc.path, &v); resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: GET %s → %d", name, tc.path, resp.StatusCode)
				}
				if m, ok := v.(map[string]any); ok {
					delete(m, tc.volatile)
				}
				got[name] = v
			}
			// Rows name their shard only behind a plane.
			loneRaw, _ := json.Marshal(got["lone"])
			planeRaw, _ := json.Marshal(got["plane-of-one"])
			if strings.Contains(string(loneRaw), `"shard":`) {
				t.Fatalf("lone reply names a shard: %s", loneRaw)
			}
			if tc.path != "/stats" && tc.path != "/healthz" && !strings.Contains(string(planeRaw), `"shard":"shard-00"`) {
				t.Fatalf("plane reply does not name its shard: %s", planeRaw)
			}
			stripShardNames(got["plane-of-one"])
			if !reflect.DeepEqual(got["lone"], got["plane-of-one"]) {
				t.Fatalf("fronts disagree on %s\nlone:  %s\nplane: %s", tc.path, loneRaw, planeRaw)
			}
			tc.check(t, got["lone"])
		})
	}

	// The admin routes exist only where there is a plane to administer.
	if resp := getJSON(t, fronts["lone"]+"/shards", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/shards on a lone orchestrator → %d, want 404", resp.StatusCode)
	}
	resp, err := http.Post(fronts["lone"]+"/shards/0/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/shards/0/drain on a lone orchestrator → %d, want 404", resp.StatusCode)
	}
	var statuses []shard.ShardStatus
	getJSON(t, fronts["plane-of-one"]+"/shards", &statuses)
	if len(statuses) != 1 || statuses[0].Label != "shard-00" || statuses[0].Workers != 2 {
		t.Fatalf("/shards on a plane of one = %+v", statuses)
	}
}

// TestEventsCursorResumesTruncatedPage is the regression test for the
// lone gateway's old last_seq cursor, which named the newest sequence in
// the ring rather than the last one returned: a page cut short by ?max=
// told the poller to skip everything it had not been shown (5 events at
// max=2 → 2 of 5 seen, dropped 0). Polling by cursor must deliver every
// event exactly once on either front.
func TestEventsCursorResumesTruncatedPage(t *testing.T) {
	fronts, _, tel := startBothFronts(t)
	// No invocation has run, so the ring holds exactly these five.
	for i := 0; i < 5; i++ {
		tel.Events().Append(telemetry.Event{AtMs: float64(i), Type: telemetry.EventSubmit, Job: int64(i + 1)})
	}
	for name, base := range fronts {
		var seen []int64
		cursor := ""
		for polls := 0; ; polls++ {
			if polls > 5 {
				t.Fatalf("%s: still paging after %d polls (cursor %q)", name, polls, cursor)
			}
			var page EventsResponse
			getJSON(t, base+"/events?max=2&since="+cursor, &page)
			if page.Dropped != 0 {
				t.Fatalf("%s: page reports %d dropped, ring never overwrote", name, page.Dropped)
			}
			if len(page.Events) == 0 {
				break
			}
			if len(page.Events) > 2 {
				t.Fatalf("%s: page exceeded max: %+v", name, page.Events)
			}
			for _, ev := range page.Events {
				seen = append(seen, ev.Seq)
			}
			if want := itoa(seen[len(seen)-1]); page.Cursor != want {
				t.Fatalf("%s: cursor %q, want the last sequence returned (%s)", name, page.Cursor, want)
			}
			cursor = page.Cursor
		}
		if !reflect.DeepEqual(seen, []int64{0, 1, 2, 3, 4}) {
			t.Fatalf("%s: polled sequences %v, want all five in order", name, seen)
		}
	}
}

// TestEventsEmptyPageIsArray locks the /events JSON shape: an empty page
// must serialize as "events":[] (never null), with cursor "-1" and
// dropped 0 before any event exists.
func TestEventsEmptyPageIsArray(t *testing.T) {
	fronts, _, _ := startBothFronts(t)
	for name, base := range fronts {
		resp, err := http.Get(base + "/events")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), `"events":[]`) {
			t.Fatalf("%s: empty page did not serialize as []: %s", name, body)
		}
		var out EventsResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cursor != "-1" || out.Dropped != 0 || out.Events == nil || len(out.Events) != 0 {
			t.Fatalf("%s: empty page = %+v", name, out)
		}
	}
}

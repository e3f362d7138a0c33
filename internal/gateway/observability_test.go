package gateway

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/shard"
	"microfaas/internal/telemetry"
	"microfaas/internal/tsdb"
)

// startObservedShardedGateway boots two live shards, fronts them with a
// sharded gateway, and attaches a time-series store scraping both shard
// registries. The store is scraped manually — tests control the clock.
func startObservedShardedGateway(t *testing.T) (base string, store *tsdb.Store) {
	t.Helper()
	labels := []string{"shard-00", "shard-01"}
	lives := make([]*cluster.Live, 2)
	tels := make([]*telemetry.Telemetry, 2)
	for i := range lives {
		tels[i] = telemetry.New()
		l, err := cluster.StartLive(cluster.LiveOptions{
			Workers:    2,
			Seed:       int64(11 + i),
			Telemetry:  tels[i],
			ShardLabel: labels[i],
			JobIDBase:  int64(i) << 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(l.Close)
		lives[i] = l
	}
	plane, err := shard.NewPlane(lives[0].Runtime, orchestrators(lives), shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	store = tsdb.New(tsdb.Config{})
	for i, tel := range tels {
		store.AddSource(labels[i], tel.Registry())
	}
	gw, err := New(plane, Options{Mode: "live", TSDB: store})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	return "http://" + addr, store
}

func TestQueryEndpointMergesShards(t *testing.T) {
	base, store := startObservedShardedGateway(t)

	// Baseline scrape, traffic, follow-up scrape: the counter increase
	// across the window is exactly the invocations driven in between.
	store.Scrape(time.Second)
	for _, key := range []string{"u/1", "u/2", "u/3", "u/4"} {
		body := `{"function":"CascSHA","args":{"rounds":3,"seed":"q"},"key":"` + key + `"}`
		if resp, out := postInvoke(t, base, body); resp.StatusCode != http.StatusOK || out.Error != "" {
			t.Fatalf("invoke %s: status %d, %+v", key, resp.StatusCode, out)
		}
	}
	store.Scrape(2 * time.Second)

	var q QueryResponse
	getJSON(t, base+"/query?metric=microfaas_jobs_submitted_total&op=increase&window=1m", &q)
	if q.Metric != "microfaas_jobs_submitted_total" || q.Op != "increase" {
		t.Fatalf("echo = %+v", q)
	}
	total := 0.0
	shardsSeen := map[string]bool{}
	for _, sr := range q.Series {
		total += sr.Value
		shardsSeen[sr.Labels["shard"]] = true
	}
	if total != 4 {
		t.Fatalf("summed increase = %g, want 4 (series %+v)", total, q.Series)
	}
	if !shardsSeen["shard-00"] || !shardsSeen["shard-01"] {
		t.Fatalf("merged view missing a shard label: %+v", q.Series)
	}

	// A label matcher narrows to one shard's series.
	var one QueryResponse
	getJSON(t, base+"/query?metric=microfaas_jobs_submitted_total&label=shard=shard-00", &one)
	if len(one.Series) == 0 {
		t.Fatalf("no series for shard-00")
	}
	for _, sr := range one.Series {
		if sr.Labels["shard"] != "shard-00" {
			t.Fatalf("matcher leaked foreign series: %+v", sr)
		}
	}
	if one.Op != string(tsdb.OpLast) {
		t.Fatalf("default op = %q, want last", one.Op)
	}

	// NDJSON export streams raw samples, one JSON object per line.
	resp, err := http.Get(base + "/query?metric=microfaas_jobs_submitted_total&format=ndjson&window=1m")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("ndjson content type = %q", ct)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var sample map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &sample); err != nil {
			t.Fatalf("ndjson line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines < 2 {
		t.Fatalf("ndjson export returned %d samples, want at least one per scrape", lines)
	}

	// Malformed queries are 400s, not panics or empty 200s.
	for _, bad := range []string{
		"/query?metric=depth&window=abc",
		"/query?metric=depth&op=quantile&q=nope",
		"/query?metric=depth&op=quantile&q=NaN",
		"/query?metric=depth&label=nokey",
		"/query?metric=depth&op=median",
		"/query?op=last", // metric missing
	} {
		resp, err := http.Get(base + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestSLOAndAlertsEndpoints(t *testing.T) {
	l, err := cluster.StartLive(cluster.LiveOptions{Workers: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)

	// The store scrapes a hand-driven registry so the burn trajectory is
	// exact: healthy traffic first, then a total outage.
	reg := telemetry.NewRegistry()
	okC := reg.Counter(tsdb.DefaultErrorMetric, "outcomes", "function", "f", "result", "ok")
	errC := reg.Counter(tsdb.DefaultErrorMetric, "outcomes", "function", "f", "result", "error")
	store := tsdb.New(tsdb.Config{})
	store.AddSource("", reg)
	rule := tsdb.Rule{
		Name: "errors", Kind: tsdb.KindErrorRatio, Function: "f", Target: 0.9,
		Windows: &tsdb.Windows{
			FastShort: tsdb.Duration(2 * time.Second), FastLong: tsdb.Duration(4 * time.Second), FastBurn: 2,
			SlowShort: tsdb.Duration(4 * time.Second), SlowLong: tsdb.Duration(8 * time.Second), SlowBurn: 2,
		},
	}
	if err := store.SetRules([]tsdb.Rule{rule}); err != nil {
		t.Fatal(err)
	}
	gw := front(t, l.Orch, Options{TSDB: store})
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	base := srv.URL

	now := time.Duration(0)
	step := func(ok, errs int) {
		okC.Add(float64(ok))
		errC.Add(float64(errs))
		now += time.Second
		store.Scrape(now)
	}
	for i := 0; i < 6; i++ {
		step(100, 0)
	}

	// Healthy: /slo reports the rule with both pages quiet; /alerts is
	// empty but well-formed ([] not null).
	var status []tsdb.RuleStatus
	getJSON(t, base+"/slo", &status)
	if len(status) != 1 || status[0].Rule.Name != "errors" || len(status[0].Pages) != 2 {
		t.Fatalf("slo status = %+v", status)
	}
	for _, p := range status[0].Pages {
		if p.Firing {
			t.Fatalf("page %s firing while healthy: %+v", p.Page, p)
		}
	}
	var quiet AlertsResponse
	getJSON(t, base+"/alerts", &quiet)
	if len(quiet.Active) != 0 || quiet.History == nil || len(quiet.History) != 0 {
		t.Fatalf("alerts while healthy = %+v", quiet)
	}

	// Outage: every request errors → burn 10 ≫ 2 on all windows.
	for i := 0; i < 6; i++ {
		step(0, 100)
	}
	var firing AlertsResponse
	getJSON(t, base+"/alerts", &firing)
	if len(firing.Active) == 0 {
		t.Fatal("no active alerts during total outage")
	}
	for _, a := range firing.Active {
		if a.Rule != "errors" || (a.Page != "fast" && a.Page != "slow") {
			t.Fatalf("active alert = %+v", a)
		}
		if a.ShortBurn < a.Threshold || a.LongBurn < a.Threshold {
			t.Fatalf("firing page below threshold: %+v", a)
		}
	}
	if len(firing.History) == 0 || firing.History[0].Type != tsdb.EventAlertFiring {
		t.Fatalf("history = %+v", firing.History)
	}
	getJSON(t, base+"/slo", &status)
	anyFiring := false
	for _, p := range status[0].Pages {
		anyFiring = anyFiring || p.Firing
	}
	if !anyFiring {
		t.Fatalf("slo status shows no firing page during outage: %+v", status)
	}
}

func TestObservabilityEndpointsDisabledWithoutStore(t *testing.T) {
	l, err := cluster.StartLive(cluster.LiveOptions{Workers: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	gw := front(t, l.Orch, Options{})
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	for _, path := range []string{"/query?metric=x", "/slo", "/alerts"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s without a store: status %d, want 404", path, resp.StatusCode)
		}
	}
}

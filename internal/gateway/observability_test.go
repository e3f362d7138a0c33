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
func startObservedShardedGateway(t *testing.T) (base string, plane *shard.Plane, store *tsdb.Store, tels []*telemetry.Telemetry) {
	t.Helper()
	labels := []string{"shard-00", "shard-01"}
	lives := make([]*cluster.Live, 2)
	tels = make([]*telemetry.Telemetry, 2)
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
	return "http://" + addr, plane, store, tels
}

func TestQueryEndpointMergesShards(t *testing.T) {
	base, _, store, _ := startObservedShardedGateway(t)

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
	if len(firing.History) == 0 || firing.History[0].Type != telemetry.EventAlertFiring {
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

// shardKeys finds one routing key per shard so a test can aim traffic.
func shardKeys(t *testing.T, plane *shard.Plane) []string {
	t.Helper()
	keys := make([]string, 2)
	found := 0
	for i := 0; i < 64 && found < 2; i++ {
		key := "u/" + itoa(int64(i))
		si := plane.ShardFor(key)
		if si >= 0 && si < 2 && keys[si] == "" {
			keys[si] = key
			found++
		}
	}
	if found != 2 {
		t.Fatal("could not find keys covering both shards")
	}
	return keys
}

// TestShardedEventsRingOverwritePaging drives each shard's event ring
// past capacity, then checks the merged /events stream: survivors only,
// loss accounted as the sum of every shard's overwrite gap, and a vector
// cursor that resumes exactly — including a cursor taken before the
// overwrite happened.
func TestShardedEventsRingOverwritePaging(t *testing.T) {
	const maxPage = 4096 // the largest page /events serves
	base, plane, _, tels := startObservedShardedGateway(t)
	keys := shardKeys(t, plane)

	// One invocation emits a full lifecycle (6+ events); drive one through
	// each shard, then a ring's worth of cluster-level events after it.
	for _, key := range keys {
		body := `{"function":"CascSHA","args":{"rounds":3,"seed":"ev"},"key":"` + key + `"}`
		if resp, out := postInvoke(t, base, body); resp.StatusCode != http.StatusOK || out.Error != "" {
			t.Fatalf("invoke %s: status %d, %+v", key, resp.StatusCode, out)
		}
	}
	for _, tel := range tels {
		emitRing(tel)
	}
	var survivors int
	var wantDropped int64
	for i, tel := range tels {
		evs, gap, _ := tel.Events().Page(-1, maxPage)
		if gap == 0 {
			t.Fatalf("shard %d ring never overwrote (%d events)", i, len(evs))
		}
		survivors += len(evs)
		wantDropped += gap
	}

	// readAll chains pages of at most max from since until one comes back
	// empty: the events, the first page, and the cursor it ended at. (A
	// shard whose cursor has not yet passed its overwritten range
	// re-reports that gap on each page — loss is relative to the
	// request's cursor — so Dropped is bounded by the fresh-poller figure,
	// not zero.) Passing the final cursor back reads nothing and loses
	// nothing.
	readAll := func(since string, max int64) (events []ShardEvent, first EventsResponse, cursor string) {
		t.Helper()
		cursor = since
		for i := 0; ; i++ {
			var p EventsResponse
			getJSON(t, base+"/events?since="+cursor+"&max="+itoa(max), &p)
			if i == 0 {
				first = p
			}
			if int64(len(p.Events)) > max {
				t.Fatalf("page exceeded max: %d events", len(p.Events))
			}
			if p.Dropped > wantDropped {
				t.Fatalf("page reported more loss than the rings overwrote: %+v", p)
			}
			if len(p.Events) == 0 {
				if i > 0 && (p.Dropped != 0 || p.Cursor != cursor) {
					t.Fatalf("caught-up page = %+v", p)
				}
				return events, first, cursor
			}
			if i > survivors {
				t.Fatalf("%d pages from %s never caught up", i, since)
			}
			events = append(events, p.Events...)
			cursor = p.Cursor
		}
	}

	// A fresh poller gets every survivor, the exact merged loss, and a
	// per-shard cursor.
	all, page, end := readAll("-1", maxPage)
	if len(all) != survivors {
		t.Fatalf("merged pages have %d events, want %d survivors", len(all), survivors)
	}
	if page.Dropped != wantDropped {
		t.Fatalf("dropped = %d, want %d (summed per-shard gaps)", page.Dropped, wantDropped)
	}
	if parts := strings.Split(end, ","); len(parts) != 2 {
		t.Fatalf("cursor %q is not a 2-shard vector", end)
	}
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if a.AtMs > b.AtMs {
			t.Fatalf("merged events out of time order: %+v before %+v", a, b)
		}
		if a.Shard == b.Shard && a.Seq >= b.Seq {
			t.Fatalf("same-shard events out of sequence order: %+v before %+v", a, b)
		}
	}

	// Regression: a cursor taken before the rings overwrote (seq 0 on
	// both shards) still accounts the loss exactly — the events between
	// the cursor and each ring's oldest survivor.
	spanEvents, span, _ := readAll("0,0", maxPage)
	var wantSpanDropped int64
	wantSpanEvents := 0
	for _, tel := range tels {
		evs, gap, _ := tel.Events().Page(0, maxPage)
		wantSpanDropped += gap
		wantSpanEvents += len(evs)
	}
	if span.Dropped != wantSpanDropped || len(spanEvents) != wantSpanEvents {
		t.Fatalf("overwrite-spanning cursor: dropped=%d events=%d, want %d/%d",
			span.Dropped, len(spanEvents), wantSpanDropped, wantSpanEvents)
	}

	// Small pages chained by cursor reassemble the full stream with no
	// duplicates.
	got, _, cursor := readAll("-1", 1000)
	if len(got) != survivors {
		t.Fatalf("chained pages yielded %d events, want %d", len(got), survivors)
	}
	if cursor != end {
		t.Fatalf("chained cursor ended at %q, full pages at %q", cursor, end)
	}
	seen := map[string]bool{}
	for _, ev := range got {
		id := ev.Shard + "/" + itoa(ev.Seq)
		if seen[id] {
			t.Fatalf("event %s delivered twice across pages", id)
		}
		seen[id] = true
	}

	// Cursor validation: wrong arity and junk are 400s.
	for _, bad := range []string{"?since=1,2,3", "?since=x", "?since=1,y"} {
		resp, err := http.Get(base + "/events" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

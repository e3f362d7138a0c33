package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/core"
	"microfaas/internal/shard"
	"microfaas/internal/telemetry"
)

// startShardedGateway boots two live clusters as shards of one plane
// and fronts them with a sharded gateway.
func startShardedGateway(t *testing.T) (base string, plane *shard.Plane) {
	t.Helper()
	lives := make([]*cluster.Live, 2)
	for i := range lives {
		l, err := cluster.StartLive(cluster.LiveOptions{
			Workers:    2,
			Seed:       int64(11 + i),
			Telemetry:  telemetry.New(),
			ShardLabel: []string{"shard-00", "shard-01"}[i],
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
	gw, err := New(plane, Options{Mode: "live"})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	return "http://" + addr, plane
}

func TestShardedGatewayEndToEnd(t *testing.T) {
	base, plane := startShardedGateway(t)

	// Synchronous invocations route through the consistent-hash tier and
	// come back with cluster-unique job ids.
	seen := map[string]bool{}
	for i, body := range []string{
		`{"function":"CascSHA","args":{"rounds":3,"seed":"a"},"key":"u/1"}`,
		`{"function":"CascSHA","args":{"rounds":3,"seed":"b"},"key":"u/2"}`,
		`{"function":"FloatOps","args":{"iterations":1000},"key":"u/3"}`,
		`{"function":"FloatOps","args":{"iterations":1000},"key":"u/4"}`,
	} {
		resp, out := postInvoke(t, base, body)
		if resp.StatusCode != http.StatusOK || out.Error != "" {
			t.Fatalf("invoke %d: status %d, %+v", i, resp.StatusCode, out)
		}
		if out.JobID == 0 || out.Worker == "" {
			t.Fatalf("invoke %d: response = %+v", i, out)
		}
		seen[out.Worker] = true
	}
	if got := plane.ShardFor("u/1"); got < 0 || got > 1 {
		t.Fatalf("ShardFor out of range: %d", got)
	}

	// /healthz reports the shard count.
	var health HealthResponse
	getJSON(t, base+"/healthz", &health)
	if health.ShardCount != 2 || health.Status != "ok" {
		t.Fatalf("healthz = %+v", health)
	}

	// /shards snapshots every shard in ring order.
	var statuses []shard.ShardStatus
	getJSON(t, base+"/shards", &statuses)
	if len(statuses) != 2 || statuses[0].Label != "shard-00" || statuses[1].Label != "shard-01" {
		t.Fatalf("shards = %+v", statuses)
	}
	for _, st := range statuses {
		if st.Workers != 2 || st.Weight <= 0 {
			t.Fatalf("shard status = %+v", st)
		}
	}

	// /workers merges both partitions and labels each row by shard.
	var workers []struct {
		ID    string `json:"id"`
		Shard string `json:"shard"`
	}
	getJSON(t, base+"/workers", &workers)
	if len(workers) != 4 {
		t.Fatalf("%d workers across shards", len(workers))
	}
	shardsSeen := map[string]int{}
	for _, w := range workers {
		shardsSeen[w.Shard]++
	}
	if shardsSeen["shard-00"] != 2 || shardsSeen["shard-01"] != 2 {
		t.Fatalf("worker shard labels = %v", shardsSeen)
	}

	// /stats merges the per-shard collectors.
	var stats StatsResponse
	getJSON(t, base+"/stats", &stats)
	if stats.Completed != 4 || stats.Errors != 0 {
		t.Fatalf("stats = %+v", stats)
	}

	// /metrics is one exposition with the plane's shard families and
	// every shard's samples labeled by shard.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"microfaas_shard_queue_depth",
		"microfaas_shard_stolen_total",
		"microfaas_gateway_async_unfetched 0", // the gateway's own, on the plane's registry
		`shard="shard-00"`,
		`shard="shard-01"`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("merged metrics missing %q:\n%.2000s", want, body)
		}
	}
	samples, err := telemetry.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("merged exposition does not parse: %v", err)
	}
	if got := samples.Sum("microfaas_jobs_submitted_total"); got != 4 {
		t.Fatalf("submitted across shards = %v, want 4", got)
	}
}

func TestShardedGatewayAsyncAndDefaultKey(t *testing.T) {
	base, _ := startShardedGateway(t)

	// No explicit key: the function name routes (colocation default).
	resp, err := http.Post(base+"/invoke?async=1", "application/json",
		strings.NewReader(`{"function":"FloatOps","args":{"iterations":500}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async status %d", resp.StatusCode)
	}
	var accepted struct {
		JobID int64 `json:"job_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.JobID == 0 {
		t.Fatal("no job id")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(base + "/jobs/" + jsonInt(accepted.JobID))
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode == http.StatusOK {
			r.Body.Close()
			break
		}
		r.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("async job never completed (last status %d)", r.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// orchestrators extracts the shard orchestrators in ring order.
func orchestrators(lives []*cluster.Live) []*core.Orchestrator {
	out := make([]*core.Orchestrator, len(lives))
	for i, l := range lives {
		out[i] = l.Orch
	}
	return out
}

func jsonInt(v int64) string { return strconv.FormatInt(v, 10) }

package main

import (
	"strings"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/core"
	"microfaas/internal/gateway"
	"microfaas/internal/shard"
	"microfaas/internal/telemetry"
)

// startShardedStack boots two live clusters as shards behind one plane
// gateway and returns a client aimed at it.
func startShardedStack(t *testing.T) (*client, *strings.Builder) {
	t.Helper()
	orchs := make([]*core.Orchestrator, 2)
	var rt core.Runtime
	for i := range orchs {
		l, err := cluster.StartLive(cluster.LiveOptions{
			Workers:    2,
			Seed:       int64(21 + i),
			Telemetry:  telemetry.New(),
			ShardLabel: []string{"shard-00", "shard-01"}[i],
			JobIDBase:  int64(i) << 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(l.Close)
		orchs[i] = l.Orch
		rt = l.Runtime
	}
	plane, err := shard.NewPlane(rt, orchs, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, plane, gateway.Options{Mode: "live"})
}

func TestShardsCommand(t *testing.T) {
	c, out := startShardedStack(t)
	if err := c.run([]string{"invoke", "CascSHA", `{"rounds":2,"seed":"sh"}`}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := c.run([]string{"shards"}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"shard-00", "shard-01", "stolen-in", "total"} {
		if !strings.Contains(got, want) {
			t.Fatalf("shards output missing %q:\n%s", want, got)
		}
	}
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 4 { // header + 2 shards + total
		t.Fatalf("shards table has %d lines:\n%s", len(lines), got)
	}
	if err := c.run([]string{"shards", "drain", "shard-01"}); err == nil || !strings.Contains(err.Error(), "no arguments") {
		t.Fatalf("shards drain: err %v, want a usage error", err)
	}
}

func TestWorkersTableShardColumn(t *testing.T) {
	c, out := startShardedStack(t)
	if err := c.run([]string{"workers"}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "shard") || !strings.Contains(got, "shard-01") {
		t.Fatalf("workers table missing shard column:\n%s", got)
	}
	if got := strings.Count(got, "live-"); got != 4 {
		t.Fatalf("workers table lists %d workers, want 4:\n%s", got, out.String())
	}
}

// TestTopAggregatesShardLabels drives traffic through a sharded plane
// and checks top is label-aware: the merged /metrics exposition splits
// every family into shard-labeled series, and the dashboard sums them
// into one cluster view — one total, one row per function, never one
// row per shard.
func TestTopAggregatesShardLabels(t *testing.T) {
	c, out := startShardedStack(t)
	for i := 0; i < 8; i++ {
		body := `{"rounds":2,"seed":"agg"}`
		if err := c.run([]string{"invoke", "CascSHA", body}); err != nil {
			t.Fatal(err)
		}
	}
	out.Reset()
	if err := c.top(time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "invocations 8") {
		t.Fatalf("top did not sum shard-labeled counters:\n%s", got)
	}
	if n := strings.Count(got, "CascSHA"); n != 1 {
		t.Fatalf("CascSHA rendered %d rows, want one summed row:\n%s", n, got)
	}
	if !strings.Contains(got, "       8       0") {
		t.Fatalf("function row does not sum ok across shards:\n%s", got)
	}
	// The health line renders distinct worker ids (shards reuse the same
	// "live-NNN" names, so the two shards' partitions fold together).
	if !strings.Contains(got, "workers: live-000") {
		t.Fatalf("workers line missing:\n%s", got)
	}
}

package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/node"
)

// TestQueuedMsReportsWaitNotTotal is the regression test for the latency
// accounting bug: queued_ms used to report FinishedAt − SubmittedAt (the
// end-to-end latency) instead of StartedAt − SubmittedAt (the queue wait).
// With a slow worker and a contended queue, the distinction is stark: the
// first job starts immediately (tiny queued_ms), the second waits out the
// first's full cycle.
func TestQueuedMsReportsWaitNotTotal(t *testing.T) {
	l, err := cluster.StartLive(cluster.LiveOptions{Workers: 1, Seed: 9, LiveBoardConfig: node.LiveBoardConfig{BootDelay: 60 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	gw := front(t, l.Orch, Options{})
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() }) //nolint:errcheck
	base := "http://" + addr

	var mu sync.Mutex
	var outs []InvokeResponse
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/invoke", "application/json",
				bytes.NewReader([]byte(`{"function":"RegExMatch","args":{"pattern":"a+","text":"aa"}}`)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var out InvokeResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			outs = append(outs, out)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(outs) != 2 {
		t.Fatalf("got %d responses", len(outs))
	}
	minQueued, maxQueued := outs[0].QueuedMs, outs[1].QueuedMs
	if minQueued > maxQueued {
		minQueued, maxQueued = maxQueued, minQueued
	}
	// One job ran immediately; under the old accounting its queued_ms
	// would have included the 60ms boot and never been this small.
	if minQueued > 40 {
		t.Fatalf("both jobs report large queued_ms (%.1f, %.1f) — queued time includes execution", outs[0].QueuedMs, outs[1].QueuedMs)
	}
	// The other waited out the first job's ≥60ms cycle.
	if maxQueued < 40 {
		t.Fatalf("contended job reports queued_ms %.1f despite a 60ms boot ahead of it", maxQueued)
	}
	for _, out := range outs {
		if out.TotalLatencyMs < out.QueuedMs+out.TotalMs-1 {
			t.Fatalf("total_latency_ms %.1f < queued %.1f + cycle %.1f", out.TotalLatencyMs, out.QueuedMs, out.TotalMs)
		}
	}
}

// TestSyncInvokeTimeoutLeavesJobRunning drives the sync wait past its
// bound: the client gets 504, and the job, which outlasts the wait by its
// boot delay alone, still completes and lands in the collector.
func TestSyncInvokeTimeoutLeavesJobRunning(t *testing.T) {
	l, err := cluster.StartLive(cluster.LiveOptions{Workers: 1, Seed: 9, LiveBoardConfig: node.LiveBoardConfig{BootDelay: 200 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	gw := front(t, l.Orch, Options{})
	gw.timeout = 20 * time.Millisecond
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() }) //nolint:errcheck

	resp, out := postInvoke(t, "http://"+addr, `{"function":"CascSHA","args":{"rounds":3,"seed":"late"}}`)
	if resp.StatusCode != http.StatusGatewayTimeout || out.Error != "invocation timed out" {
		t.Fatalf("sync invoke past the wait → %d %+v, want 504 invocation timed out", resp.StatusCode, out)
	}
	l.Orch.Quiesce()
	recs := l.Orch.Collector().Records()
	if len(recs) != 1 || recs[0].Function != "CascSHA" || recs[0].Err != "" {
		t.Fatalf("records after the 504 = %+v, want the job completed", recs)
	}
}

// TestWorkersEndpointReportsHealth checks /workers exposes the OP's
// failure tracking, not just queue depths.
func TestWorkersEndpointReportsHealth(t *testing.T) {
	base, _ := startGateway(t)
	resp, err := http.Get(base + "/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []struct {
		ID         string `json:"id"`
		Breaker    string `json:"breaker"`
		QueueDepth int    `json:"queue_depth"`
		Completed  int    `json:"completed"`
		Busy       bool   `json:"busy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("workers = %+v", out)
	}
	for _, w := range out {
		if w.ID == "" || w.Breaker != "closed" {
			t.Fatalf("worker = %+v", w)
		}
	}
}

// TestInvokeDuringDrainIs503 checks both invocation paths refuse work with
// a 503 once the orchestrator is draining.
func TestInvokeDuringDrainIs503(t *testing.T) {
	base, l := startGateway(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	l.Orch.Drain(ctx)
	for _, path := range []string{"/invoke", "/invoke?async=1"} {
		resp, err := http.Post(base+path, "application/json",
			bytes.NewReader([]byte(`{"function":"RegExMatch","args":{"pattern":"a","text":"a"}}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("POST %s during drain → %d, want 503", path, resp.StatusCode)
		}
	}
}

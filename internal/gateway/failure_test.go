package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/core"
)

// TestQueuedMsReportsWaitNotTotal is the regression test for the latency
// accounting bug: queued_ms used to report FinishedAt − SubmittedAt (the
// end-to-end latency) instead of StartedAt − SubmittedAt (the queue wait).
// With a slow worker and a contended queue, the distinction is stark: the
// first job starts immediately (tiny queued_ms), the second waits out the
// first's full cycle.
func TestQueuedMsReportsWaitNotTotal(t *testing.T) {
	l, err := cluster.StartLive(cluster.LiveOptions{Workers: 1, Seed: 9, BootDelay: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	gw, err := NewWithOptions(l.Orch, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
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

// asyncTable drives a gateway's async job table on a clock the test steps:
// submissions and completions are filed directly (the jobs never run),
// reads go through the real GET /jobs/{id} handler.
type asyncTable struct {
	t       *testing.T
	gw      *Server
	t0, now time.Time
}

func newAsyncTable(t *testing.T) *asyncTable {
	t.Helper()
	l, err := cluster.StartLive(cluster.LiveOptions{Workers: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	gw, err := NewWithOptions(l.Orch, Options{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	a := &asyncTable{t: t, gw: gw, t0: time.Now()}
	a.now = a.t0
	gw.now = func() time.Time { return a.now }
	return a
}

// at moves the clock to d past the table's start.
func (a *asyncTable) at(d time.Duration) { a.now = a.t0.Add(d) }

func (a *asyncTable) submit(id int64) { a.gw.markPending(id) }

func (a *asyncTable) complete(id int64) {
	a.gw.recordAsync(core.Result{Job: core.Job{ID: id, Function: "F"}, WorkerID: "w"})
}

// state polls the job: "done" (which consumes the result, as any fetch
// does), "pending" or "gone".
func (a *asyncTable) state(id int64) string {
	a.t.Helper()
	rec := httptest.NewRecorder()
	a.gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/jobs/%d", id), nil))
	switch rec.Code {
	case http.StatusOK:
		return "done"
	case http.StatusAccepted:
		return "pending"
	case http.StatusNotFound:
		return "gone"
	}
	a.t.Fatalf("GET /jobs/%d → %d", id, rec.Code)
	return ""
}

// want polls each job and checks the state it reads.
func (a *asyncTable) want(state string, ids ...int64) {
	a.t.Helper()
	for _, id := range ids {
		if got := a.state(id); got != state {
			a.t.Fatalf("job %d reads %q at +%v, want %q", id, got, a.now.Sub(a.t0), state)
		}
	}
}

// rows reaps at the current time and returns the table's size, checking
// its structural invariant on the way: the expiry queue holds exactly one
// entry per row.
func (a *asyncTable) rows() int {
	a.t.Helper()
	a.gw.mu.Lock()
	defer a.gw.mu.Unlock()
	a.gw.reapLocked(a.now.Sub(a.gw.start))
	if len(a.gw.expiry) != len(a.gw.jobs) {
		a.t.Fatalf("expiry queue holds %d entries for %d rows", len(a.gw.expiry), len(a.gw.jobs))
	}
	seen := map[int64]bool{}
	for _, e := range a.gw.expiry {
		if _, ok := a.gw.jobs[e.id]; !ok || seen[e.id] {
			a.t.Fatalf("queue entry for job %d is orphaned or duplicated", e.id)
		}
		seen[e.id] = true
	}
	return len(a.gw.jobs)
}

// TestAsyncPendingSurvivesFastPollerRace is the regression test for the
// pending-entry leak: when the completion callback fired (and the result
// was even fetched) before invokeAsync got around to marking the job
// pending, the stale pending entry lived forever and /jobs/{id} reported a
// finished job as still pending. markPending inserts only a job it has
// never seen, and a fetched row stays until it expires, which closes the
// race.
func TestAsyncPendingSurvivesFastPollerRace(t *testing.T) {
	a := newAsyncTable(t)

	// Normal order: mark pending, then complete → pending retired, the
	// result fetched exactly once.
	a.submit(7)
	a.want("pending", 7)
	a.complete(7)
	a.want("done", 7)
	a.want("gone", 7) // double fetch → 404

	// Race order: completion (and even pickup, which consumes the result)
	// lands before markPending. The job must NOT be re-marked pending —
	// that row would report a finished job as in flight.
	a.complete(8)
	a.want("done", 8) // fast poller
	a.submit(8)
	a.want("gone", 8)

	// Completion before markPending, result not yet fetched: still there.
	a.complete(9)
	a.submit(9)
	a.want("done", 9)

	if rows := a.rows(); rows != 3 {
		t.Fatalf("%d rows for three jobs", rows)
	}
}

// TestAsyncPendingPollIsHeldOneBeat pins the server-side pacing of polls: a
// poll that finds its job pending is held pollBeat and looks again, so it
// answers 202 no sooner than that, and 200 when the job finished meanwhile.
func TestAsyncPendingPollIsHeldOneBeat(t *testing.T) {
	a := newAsyncTable(t)
	a.submit(1)
	begin := time.Now()
	a.want("pending", 1)
	if held := time.Since(begin); held < pollBeat {
		t.Fatalf("pending poll answered after %v, want it held %v", held, pollBeat)
	}

	// The handler reads the clock once per look, under the table's lock: the
	// second reading is the look after the hold, and the job is done by then.
	a.submit(2)
	looks := 0
	a.gw.now = func() time.Time {
		if looks++; looks == 2 {
			a.gw.jobs[2] = asyncJob{result: &InvokeResponse{JobID: 2}, completed: true, expiresAt: RetainAsync}
		}
		return a.now
	}
	a.want("done", 2)
	if looks != 2 {
		t.Fatalf("the poll looked %d times, want 2", looks)
	}
	a.want("gone", 2) // not pending: answered at the first look
	if looks != 3 {
		t.Fatalf("a poll of a fetched job looked %d times, want 1", looks-2)
	}
}

// TestAsyncStateExpires verifies every kind of row — a held result, a
// fetched marker, and a pending job whose callback never fires (abandoned
// in a drain) — is dropped once its retention window passes, that a job
// completing late in its pending window is kept for a full window from
// completion, and that nothing is dropped early.
func TestAsyncStateExpires(t *testing.T) {
	a := newAsyncTable(t)
	const late = RetainAsync - time.Minute // shortly before the first windows close

	a.submit(1) // abandoned: never completes
	a.submit(2) // completes at once, never fetched
	a.complete(2)
	a.submit(3) // completes at once, fetched
	a.complete(3)
	a.want("done", 3)
	a.submit(4) // completes late in its pending window
	a.at(late)
	a.complete(4)
	a.submit(5) // submitted late

	// At the very edge of the first window nothing may be gone.
	a.at(RetainAsync)
	a.want("pending", 1)
	if rows := a.rows(); rows != 5 {
		t.Fatalf("%d of 5 rows left at the edge of the first window", rows)
	}

	// Past it: the abandoned, unfetched and fetched rows are dropped...
	a.at(RetainAsync + time.Second)
	if rows := a.rows(); rows != 2 {
		t.Fatalf("%d rows survive the first window, want jobs 4 and 5 only", rows)
	}
	a.want("gone", 1, 2, 3)
	// ...while the late submission is still pending, and the late completer
	// outlives its pending expiry: its window restarted at completion.
	a.want("pending", 5)
	a.want("done", 4)

	a.at(late + RetainAsync + time.Second)
	if rows := a.rows(); rows != 0 {
		t.Fatalf("%d rows outlive every window", rows)
	}
}

// TestAsyncRefiledRowExpiresOnTime pins the one place the expiry queue is
// not in expiry order: a row completed late is re-filed behind entries
// that expire after it, so the reap reaches it late — and a fetch must
// still refuse its result the moment its own window has passed.
func TestAsyncRefiledRowExpiresOnTime(t *testing.T) {
	a := newAsyncTable(t)
	const late = RetainAsync - time.Minute
	a.submit(1)
	a.submit(2)
	a.at(late)
	a.complete(1)
	a.complete(2)
	// Job 3 expires after jobs 1 and 2 but is filed before they are
	// re-filed — which the next reap does.
	a.at(RetainAsync)
	a.submit(3)
	a.at(RetainAsync + time.Second)
	if rows := a.rows(); rows != 3 {
		t.Fatalf("%d of 3 rows left", rows)
	}
	if head := a.gw.expiry[0].id; head != 3 {
		t.Fatalf("queue head is job %d, want 3 with jobs 1 and 2 re-filed behind it", head)
	}
	a.at(late + RetainAsync)
	a.want("done", 1) // the edge of its done window
	a.at(late + RetainAsync + time.Second)
	a.want("gone", 2)
	a.at(3 * RetainAsync)
	if rows := a.rows(); rows != 0 {
		t.Fatalf("%d rows outlive every window", rows)
	}
}

// TestAsyncReapPopsOnlyTheExpiredPrefix holds 10,000 fetched-but-retained
// jobs (the state a busy async client leaves behind) and checks a reap
// removes exactly the expired ones, touches nothing else, and keeps the
// queue at one entry per surviving row.
func TestAsyncReapPopsOnlyTheExpiredPrefix(t *testing.T) {
	a := newAsyncTable(t)
	const jobs, expired = 10000, 2500
	for i := int64(1); i <= jobs; i++ {
		a.at(time.Duration(i) * time.Millisecond)
		a.submit(i)
		a.complete(i)
		a.want("done", i)
	}
	if rows := a.rows(); rows != jobs {
		t.Fatalf("%d rows for %d fetched jobs", rows, jobs)
	}

	// Job i expires RetainAsync after i ms: step just past job 2,500's.
	a.at(RetainAsync + expired*time.Millisecond + time.Microsecond)
	if rows := a.rows(); rows != jobs-expired {
		t.Fatalf("reap left %d rows, want %d", rows, jobs-expired)
	}
	a.gw.mu.Lock()
	_, last := a.gw.jobs[expired]
	_, next := a.gw.jobs[expired+1]
	a.gw.mu.Unlock()
	if last || !next {
		t.Fatalf("after the reap job %d present %v, job %d present %v", expired, last, expired+1, next)
	}
	// A reap with nothing newly expired is a no-op, and a fetched row still
	// answers 404 rather than pending.
	if rows := a.rows(); rows != jobs-expired {
		t.Fatalf("idle reap changed the table to %d rows", rows)
	}
	a.want("gone", jobs)
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

package core

import (
	"context"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"microfaas/internal/sim"
)

// newStealPair builds two single-engine orchestrators with disjoint
// job-id spaces, mimicking two shards of a plane.
func newStealPair(t *testing.T, workersEach int, service time.Duration) (*sim.Engine, *Orchestrator, *Orchestrator) {
	t.Helper()
	e := sim.NewEngine(7)
	build := func(base int64, label string) *Orchestrator {
		ws := make([]Worker, workersEach)
		for i := range ws {
			ws[i] = &fakeWorker{id: fmt.Sprintf("%s-w%02d", label, i), engine: e, service: service}
		}
		o, err := New(Config{
			Runtime: SimRuntime{Engine: e}, Workers: ws, Seed: 11,
			Policy: AssignLeastLoaded, JobIDBase: base, ShardLabel: label,
		})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	return e, build(0, "a"), build(1<<40, "b")
}

func TestNegativeJobIDBaseRejected(t *testing.T) {
	e := sim.NewEngine(1)
	_, err := New(Config{
		Runtime:   SimRuntime{Engine: e},
		Workers:   []Worker{&fakeWorker{id: "w", engine: e, service: time.Second}},
		JobIDBase: -5,
	})
	if err == nil {
		t.Fatal("negative JobIDBase accepted")
	}
}

func TestJobIDBaseOffsetsSequence(t *testing.T) {
	_, _, b := newStealPair(t, 1, time.Second)
	if id := b.Submit("f", nil); id != 1<<40+1 {
		t.Fatalf("first id on offset shard = %d", id)
	}
}

// TestTakeQueuedKeepsHeads loads one worker with a deep queue and
// checks that TakeQueued drains from the tail, never takes the head
// job, updates pending, and hands each stolen job over with its
// callback, which the victim never fires.
func TestTakeQueuedKeepsHeads(t *testing.T) {
	e, a, _ := newStealPair(t, 1, time.Second)
	fired := map[int64]bool{}
	var ids []int64
	for j := 0; j < 6; j++ {
		id := a.SubmitAsync("f", nil, func(res Result) { fired[res.Job.ID] = true })
		ids = append(ids, id)
	}
	// One running (job 1), five queued (jobs 2..6). Ask for more than
	// is stealable: only 4 may move — the queue head (job 2) stays.
	stolen := a.TakeQueued(10)
	if len(stolen) != 4 {
		t.Fatalf("stole %d jobs, want 4", len(stolen))
	}
	// Tail-first order: newest job (6) first.
	if stolen[0].ID != ids[5] {
		t.Fatalf("first stolen id %d, want newest %d", stolen[0].ID, ids[5])
	}
	for _, st := range stolen {
		if st.ID == ids[0] || st.ID == ids[1] {
			t.Fatalf("stole non-stealable job %d", st.ID)
		}
		if st.cb == nil {
			t.Fatalf("job %d lost its callback", st.ID)
		}
	}
	if p := a.Pending(); p != 2 {
		t.Fatalf("pending after steal = %d, want 2", p)
	}
	e.RunAll()
	if !fired[ids[0]] || !fired[ids[1]] {
		t.Fatal("remaining jobs did not settle")
	}
	for _, st := range stolen {
		if fired[st.ID] {
			t.Fatalf("stolen job %d settled on the victim", st.ID)
		}
	}
}

func TestTakeQueuedNothingStealable(t *testing.T) {
	_, a, _ := newStealPair(t, 2, time.Second)
	if got := a.TakeQueued(5); got != nil {
		t.Fatalf("empty orchestrator yielded %d jobs", len(got))
	}
	a.SubmitAsync("f", nil, nil) // runs immediately, queue empty
	a.SubmitAsync("f", nil, nil)
	if got := a.TakeQueued(5); got != nil {
		t.Fatalf("running-only orchestrator yielded %d jobs", len(got))
	}
	if got := a.TakeQueued(0); got != nil {
		t.Fatal("TakeQueued(0) returned jobs")
	}
}

// TestSubmitJobPreservesIdentity migrates a queued job between two
// orchestrators and checks the result arrives under the original id
// with the original submit time intact.
func TestSubmitJobPreservesIdentity(t *testing.T) {
	e, a, b := newStealPair(t, 1, time.Second)
	var settled []Result
	for j := 0; j < 3; j++ {
		a.SubmitAsync("f", nil, func(res Result) { settled = append(settled, res) })
	}
	stolen := a.TakeQueued(1)
	if len(stolen) != 1 {
		t.Fatalf("stole %d, want 1", len(stolen))
	}
	want := stolen[0].ID
	id, err := b.SubmitJob(stolen[0])
	if err != nil {
		t.Fatal(err)
	}
	if id != want {
		t.Fatalf("SubmitJob changed the id: %d → %d", want, id)
	}
	e.RunAll()
	if len(settled) != 3 {
		t.Fatalf("%d results, want 3", len(settled))
	}
	found := false
	for _, res := range settled {
		if res.Job.ID == want {
			found = true
			if res.Job.SubmittedAt != 0 {
				t.Fatalf("migrated job's submit time rewritten to %v", res.Job.SubmittedAt)
			}
			if res.Err != "" {
				t.Fatalf("migrated job failed: %s", res.Err)
			}
		}
	}
	if !found {
		t.Fatalf("no result for migrated job %d", want)
	}
}

// TestMovedJobRunsUnderThiefDeadline moves a queued job off an
// orchestrator with no deadline onto one whose JobTimeout is 50ms and
// whose only board hangs: the thief's deadline settles the job TimedOut,
// 50ms after it started there.
func TestMovedJobRunsUnderThiefDeadline(t *testing.T) {
	e := sim.NewEngine(7)
	a, err := New(Config{Runtime: SimRuntime{Engine: e}, Workers: []Worker{&fakeWorker{id: "a-w", engine: e, service: time.Second}}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{
		Runtime: SimRuntime{Engine: e}, Workers: []Worker{&hangWorker{id: "b-w", engine: e}},
		JobIDBase: 1 << 40, AttemptPolicy: AttemptPolicy{JobTimeout: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	var settled []Result
	for j := 0; j < 3; j++ {
		a.SubmitAsync("f", nil, func(res Result) { settled = append(settled, res) })
	}
	stolen := a.TakeQueued(1)
	if len(stolen) != 1 {
		t.Fatalf("stole %d, want 1", len(stolen))
	}
	e.Schedule(10*time.Millisecond, func() {
		if _, err := b.SubmitJob(stolen[0]); err != nil {
			t.Error(err)
		}
	})
	e.RunAll()
	if len(settled) != 3 {
		t.Fatalf("%d results, want 3", len(settled))
	}
	for _, res := range settled {
		if res.Job.ID != stolen[0].ID {
			if res.Err != "" {
				t.Fatalf("job %d failed on the victim: %s", res.Job.ID, res.Err)
			}
			continue
		}
		if !res.TimedOut || res.WorkerID != "b-w" || res.StartedAt != 10*time.Millisecond || res.FinishedAt != 60*time.Millisecond {
			t.Fatalf("moved job settled as %+v, want timed out on b-w at 60ms after starting at 10ms", res)
		}
	}
}

// TestJobStays72Bytes pins the job at 72 bytes: the completion callback
// it carries took the place of a per-job deadline, so moving the
// callback into the job grew nothing a queue holds.
func TestJobStays72Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Job{}); size != 72 {
		t.Fatalf("core.Job is %d bytes, want 72", size)
	}
}

func TestSubmitJobValidates(t *testing.T) {
	_, _, b := newStealPair(t, 1, time.Second)
	if _, err := b.SubmitJob(Job{}); err == nil {
		t.Fatal("SubmitJob accepted a job without an id")
	}
}

// TestSubmitJobRefusedWhileDraining checks the thief-side contract: a
// draining orchestrator returns id 0 and does not take the job.
func TestSubmitJobRefusedWhileDraining(t *testing.T) {
	e, a, b := newStealPair(t, 1, time.Second)
	for j := 0; j < 3; j++ {
		a.SubmitAsync("f", nil, nil)
	}
	stolen := a.TakeQueued(1)
	b.Drain(context.Background()) // b is idle; this just flips it to draining
	id, err := b.SubmitJob(stolen[0])
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Fatalf("draining orchestrator accepted job %d", id)
	}
	if p := b.Pending(); p != 0 {
		t.Fatalf("draining orchestrator holds %d pending", p)
	}
	// The caller still owns the job; send it home.
	if id, err := a.SubmitJob(stolen[0]); err != nil || id == 0 {
		t.Fatalf("victim refused its own job back: id=%d err=%v", id, err)
	}
	e.RunAll()
	if p := a.Pending(); p != 0 {
		t.Fatalf("%d jobs stuck", p)
	}
}

func TestQueuedCountsOnlyWaitingJobs(t *testing.T) {
	_, a, _ := newStealPair(t, 1, time.Second)
	if q := a.Queued(); q != 0 {
		t.Fatalf("empty Queued() = %d", q)
	}
	for j := 0; j < 4; j++ {
		a.SubmitAsync("f", nil, nil)
	}
	if q := a.Queued(); q != 3 {
		t.Fatalf("Queued() = %d, want 3 (one running)", q)
	}
	if p := a.Pending(); p != 4 {
		t.Fatalf("Pending() = %d, want 4", p)
	}
}

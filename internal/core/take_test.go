package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"microfaas/internal/powermgr"
	"microfaas/internal/sim"
	"microfaas/internal/telemetry"
)

// idleBesideBacklogLocked names a board that sits free while a job it may
// run waits — a waiting retry, or any backlog job — the state late binding
// rules out, or returns "" when there is none or the orchestrator is
// sealed. It is a scan of the slots, not of the free stacks. A board may
// run a job if the policy could pick it (assignableLocked's rule: the
// eligible boards, or every board once none is eligible; for a retry, any
// board but the one it failed on once that is the only eligible one) and
// the job is not a retry that failed on it, unless it is the only attached
// board. Backlog jobs carry no exclusion, so a board that may run one may
// run them all. Caller holds o.mu.
func idleBesideBacklogLocked(o *Orchestrator) string {
	if o.sealed {
		return ""
	}
	for _, r := range o.retries {
		if id := idleForLocked(o, r.off); id != "" {
			return id
		}
	}
	if o.backlog.qlen() > 0 {
		return idleForLocked(o, nil)
	}
	return ""
}

// idleForLocked names a free board that may run a job excluded from off
// (nil for none), or returns "". Caller holds o.mu.
func idleForLocked(o *Orchestrator, off *workerSlot) string {
	alone := len(o.slots) == 1
	anyBoard := len(o.eligible) == 0 || (!alone && len(o.eligible) == 1 && o.eligible[0] == off)
	for _, s := range o.slots {
		if !s.busy && s.qlen() == 0 && (s.eligPos >= 0 || anyBoard) && (s != off || alone) {
			return s.id
		}
	}
	return ""
}

// checkRetriesMoved fails if any attempt ran on the board the job's
// previous attempt failed on.
func checkRetriesMoved(t *testing.T, o *Orchestrator) {
	t.Helper()
	type attempt struct {
		job int64
		n   int
	}
	ranOn := map[attempt]string{}
	for _, r := range o.Collector().Records() {
		ranOn[attempt{r.JobID, r.Attempt}] = r.Worker
	}
	for a, w := range ranOn {
		if a.n > 0 && ranOn[attempt{a.job, a.n - 1}] == w {
			t.Fatalf("attempt %d of job %d ran on %s, where attempt %d failed", a.n, a.job, w, a.n-1)
		}
	}
}

// unevenWorker serves each job in 1–40 ms, by a hash of its board and the
// job, so boards drain at different times; a bad one fails every attempt.
type unevenWorker struct {
	id     string
	engine *sim.Engine
	salt   uint64
	bad    bool
}

func (w *unevenWorker) ID() string { return w.id }

func (w *unevenWorker) RunJob(job Job, done func(Result)) {
	h := (w.salt<<32 ^ uint64(job.ID)<<4 ^ uint64(job.Attempt)) * 0x9E3779B97F4A7C15
	service := time.Duration(1+(h>>33)%40) * time.Millisecond
	res := Result{Job: job, WorkerID: w.id, StartedAt: w.engine.Now()}
	if w.bad {
		res.Err = "bad board"
	}
	w.engine.Schedule(service, func() {
		res.FinishedAt = w.engine.Now()
		done(res)
	})
}

// TestLeastLoadedLeavesNoBoardIdle runs bursts of work over eight boards
// with uneven service times, one of which fails every attempt: its
// breaker trips and re-trips on probes, and its jobs retry elsewhere,
// some after a backoff. After every engine event no board the policy
// could pick is free while a job it may run waits, every
// job settles once, and no retry runs on the board its last attempt
// failed on.
func TestLeastLoadedLeavesNoBoardIdle(t *testing.T) {
	e := sim.NewEngine(5)
	var ws []Worker
	for i := 0; i < 8; i++ {
		ws = append(ws, &unevenWorker{id: fmt.Sprintf("w%d", i), engine: e, salt: uint64(i), bad: i == 3})
	}
	o, err := New(Config{
		Runtime: SimRuntime{Engine: e}, Workers: ws, Seed: 3, Policy: AssignLeastLoaded,
		AttemptPolicy: AttemptPolicy{MaxAttempts: 3, RetryBase: 2 * time.Millisecond, BreakerThreshold: 2, BreakerProbe: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	fired := map[int64]int{}
	const bursts, perBurst = 12, 14
	for b := 0; b < bursts; b++ {
		e.At(time.Duration(b)*60*time.Millisecond, func() {
			for j := 0; j < perBurst; j++ {
				o.SubmitAsync("f", nil, func(r Result) { fired[r.Job.ID]++ })
			}
		})
	}
	for e.Step() {
		o.mu.Lock()
		id := idleBesideBacklogLocked(o)
		o.mu.Unlock()
		if id != "" {
			t.Fatalf("at %v: %s is free beside a job it may run", e.Now(), id)
		}
	}
	if len(fired) != bursts*perBurst {
		t.Fatalf("%d of %d jobs settled", len(fired), bursts*perBurst)
	}
	for id, n := range fired {
		if n != 1 {
			t.Fatalf("job %d settled %d times", id, n)
		}
	}
	retried := 0
	for _, r := range o.Collector().Records() {
		if r.Attempt > 0 {
			retried++
		}
	}
	if h := o.Health()[3]; h.Failed < 2 || retried == 0 {
		t.Fatalf("bad board failed %d attempts and %d retries ran: the breaker never tripped or nothing retried", h.Failed, retried)
	}
	checkRetriesMoved(t, o)
}

// checkQueueCounts holds Queued() and every worker's queue-depth gauge to
// a scan of the queues, the backlog and the waiting retries.
func checkQueueCounts(t *testing.T, o *Orchestrator, after string) {
	t.Helper()
	total := o.Queued()
	o.mu.Lock()
	defer o.mu.Unlock()
	sum := o.backlog.qlen() + len(o.retries)
	for _, s := range o.slots {
		sum += s.qlen()
		if g := s.m.queueDepth.Value(); g != float64(s.qlen()) {
			t.Fatalf("after %s: %s's queue-depth gauge reads %v, its queue holds %d", after, s.id, g, s.qlen())
		}
	}
	if total != sum {
		t.Fatalf("after %s: Queued() = %d, the queues, backlog and retries hold %d", after, total, sum)
	}
}

// sameJob compares every exported field of two jobs without arguments.
func sameJob(a, b Job) bool {
	return a.ID == b.ID && a.Function == b.Function && a.SubmittedAt == b.SubmittedAt &&
		a.Attempt == b.Attempt && a.Args == nil && b.Args == nil
}

// TestTakeKeepsJobIdentity places 60 jobs built elsewhere (distinct submit
// times and attempts, each with a callback) on four parked boards and
// settles the attempts in a seeded random order. Each settled
// board takes exactly the backlog's head, so the jobs start in the order
// they were placed. Every job runs and calls back once as it was
// submitted, its trace row names the board that ran it, and Queued() and
// the queue-depth gauges match the queues after every step.
func TestTakeKeepsJobIdentity(t *testing.T) {
	lot := &parkingLot{}
	ws := make([]Worker, 4)
	for i := range ws {
		ws[i] = &parkWorker{id: fmt.Sprintf("w%d", i), lot: lot}
	}
	o, err := New(Config{Runtime: SimRuntime{Engine: sim.NewEngine(1)}, Workers: ws, Policy: AssignLeastLoaded, Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]Job{}
	fired := map[int64]int{}
	for i := 0; i < 60; i++ {
		j := Job{ID: int64(1000 + i), Function: "f", SubmittedAt: time.Duration(i) * time.Millisecond, Attempt: i % 3}
		j.cb = func(r Result) {
			fired[r.Job.ID]++
			if !sameJob(r.Job, want[r.Job.ID]) {
				t.Errorf("job %d called back as %+v, submitted as %+v", r.Job.ID, r.Job, want[r.Job.ID])
			}
		}
		want[j.ID] = j
		if _, err := o.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
		checkQueueCounts(t, o, "SubmitJob")
	}
	ranOn := map[int64]string{}
	rng := rand.New(rand.NewSource(9))
	takes := 0
	for lot.head < len(lot.runs) {
		i := lot.head + rng.Intn(len(lot.runs)-lot.head)
		lot.runs[lot.head], lot.runs[i] = lot.runs[i], lot.runs[lot.head]
		run := lot.runs[lot.head]
		lot.head++
		if !sameJob(run.job, want[run.job.ID]) {
			t.Fatalf("job %d dispatched as %+v, submitted as %+v", run.job.ID, run.job, want[run.job.ID])
		}
		ranOn[run.job.ID] = run.w.id
		o.mu.Lock()
		head, waiting := Job{}, o.backlog.qlen() > 0
		if waiting {
			head = o.backlog.qhead0()
		}
		o.mu.Unlock()
		before := len(lot.runs)
		run.done(Result{Job: run.job, WorkerID: run.w.id})
		checkQueueCounts(t, o, "a settle")
		if waiting {
			takes++
			if len(lot.runs) != before+1 || lot.runs[before].w != run.w || lot.runs[before].job.ID != head.ID {
				t.Fatalf("%s settled: want it to take job %d, the backlog's head", run.w.id, head.ID)
			}
		}
	}
	if takes != 56 {
		t.Fatalf("boards took %d jobs off the backlog, want 56", takes)
	}
	for id := range want {
		if fired[id] != 1 {
			t.Fatalf("job %d called back %d times", id, fired[id])
		}
	}
	for _, r := range o.Collector().Records() {
		if r.Worker != ranOn[r.JobID] {
			t.Fatalf("job %d's trace row names %s, it ran on %s", r.JobID, r.Worker, ranOn[r.JobID])
		}
	}
}

// TestParkedRetryIsNeverTaken parks a failed job's retry behind a long
// backoff while both boards go free: neither takes it, since it is on no
// queue. When the backoff ends with the other board busy, the retry waits,
// and the board it failed on, though free, does not run it; the other
// board takes it when it frees.
func TestParkedRetryIsNeverTaken(t *testing.T) {
	e := sim.NewEngine(1)
	lot := &parkingLot{}
	o, err := New(Config{
		Runtime: SimRuntime{Engine: e}, Workers: []Worker{&parkWorker{id: "b", lot: lot}, &parkWorker{id: "a", lot: lot}},
		Policy: AssignLeastLoaded, AttemptPolicy: AttemptPolicy{MaxAttempts: 2, RetryBase: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.Submit("f", nil) // on a: the last registered is on top of the free stack
	o.Submit("f", nil) // on b
	failed, other := lot.runs[0], lot.runs[1]
	if failed.w.id != "a" || other.w.id != "b" {
		t.Fatalf("an idle fleet ran its first jobs on %s and %s, want a and b", failed.w.id, other.w.id)
	}
	failed.done(Result{Job: failed.job, WorkerID: "a", Err: "boom"})
	other.done(Result{Job: other.job, WorkerID: "b"})
	if len(lot.runs) != 2 || len(o.parked) != 1 || o.Pending() != 1 {
		t.Fatalf("with the retry parked: %d runs, %d parked, %d pending; want 2, 1, 1", len(lot.runs), len(o.parked), o.Pending())
	}
	if _, err := o.SubmitTo("b", "f", nil); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if len(lot.runs) != 3 || o.Queued() != 1 || len(o.retries) != 1 {
		t.Fatalf("after the backoff: %d runs, %d queued; want the retry waiting", len(lot.runs), o.Queued())
	}
	busy := lot.runs[2]
	busy.done(Result{Job: busy.job, WorkerID: "b"})
	if len(lot.runs) != 4 || lot.runs[3].w.id != "b" || lot.runs[3].job.ID != failed.job.ID || lot.runs[3].job.Attempt != 1 {
		t.Fatalf("%d runs: want the retry of job %d on b", len(lot.runs), failed.job.ID)
	}
	checkRetriesMoved(t, o)
}

// TestRetryNeverReturnsToItsBoard fails a job on a with no backoff while b
// is busy: the retry waits rather than run at once on a, the only free
// board, and a new job does not wait behind it but runs on a at once. a
// then completes with nothing else waiting and still does not take the
// retry; b runs it when it frees.
func TestRetryNeverReturnsToItsBoard(t *testing.T) {
	lot := &parkingLot{}
	o, err := New(Config{
		Runtime: SimRuntime{Engine: sim.NewEngine(1)}, Workers: []Worker{&parkWorker{id: "b", lot: lot}, &parkWorker{id: "a", lot: lot}},
		Policy: AssignLeastLoaded, AttemptPolicy: AttemptPolicy{MaxAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.Submit("f", nil) // on a: the last registered is on top of the free stack
	o.Submit("f", nil) // on b
	failed := lot.runs[0]
	failed.done(Result{Job: failed.job, WorkerID: "a", Err: "boom"})
	if len(lot.runs) != 2 || o.Queued() != 1 || len(o.retries) != 1 {
		t.Fatalf("after a failed: %d runs, %d queued; want the retry waiting", len(lot.runs), o.Queued())
	}
	o.Submit("f", nil)
	if len(lot.runs) != 3 || lot.runs[2].w.id != "a" {
		t.Fatalf("a new job beside the retry: %d runs, %d queued; want it on a at once", len(lot.runs), o.Queued())
	}
	fresh := lot.runs[2]
	fresh.done(Result{Job: fresh.job, WorkerID: "a"})
	if len(lot.runs) != 3 {
		t.Fatalf("a took job %d attempt %d, a retry that failed on it", lot.runs[3].job.ID, lot.runs[3].job.Attempt)
	}
	busy := lot.runs[1]
	busy.done(Result{Job: busy.job, WorkerID: "b"})
	if len(lot.runs) != 4 || lot.runs[3].w.id != "b" || lot.runs[3].job.ID != failed.job.ID || lot.runs[3].job.Attempt != 1 {
		t.Fatalf("%d runs: want the retry of job %d on b", len(lot.runs), failed.job.ID)
	}
	if len(o.retries) != 0 || o.Queued() != 0 {
		t.Fatalf("%d retries, %d queued after every job ran", len(o.retries), o.Queued())
	}
	checkRetriesMoved(t, o)
}

// TestWaitingRetryIsRecovered leaves a retry waiting beside a one-job
// backlog: TakeQueued takes neither (the retry is not stealable, the
// backlog keeps its head), TakeAll takes both with their callbacks, the
// backlog first, and Drain abandons a waiting retry too.
func TestWaitingRetryIsRecovered(t *testing.T) {
	for _, drain := range []bool{false, true} {
		lot, o := parkedRack(t, 2)
		o.attempt.MaxAttempts = 2
		fired := 0
		cb := func(Result) { fired++ }
		failed := o.SubmitAsync("f", nil, cb)
		o.Submit("f", nil)
		lot.runs[0].done(Result{Job: lot.runs[0].job, WorkerID: lot.runs[0].w.id, Err: "boom"})
		o.Submit("f", nil) // on the board the retry failed on
		waiting := o.SubmitAsync("f", nil, cb)
		if len(lot.runs) != 3 || len(o.retries) != 1 || o.backlog.qlen() != 1 || o.Queued() != 2 {
			t.Fatalf("%d runs, %d retries, backlog %d; want a retry and a job waiting", len(lot.runs), len(o.retries), o.backlog.qlen())
		}
		if got := o.TakeQueued(10); got != nil {
			t.Fatalf("TakeQueued took %d jobs, want none", len(got))
		}
		if drain {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			got := o.Drain(ctx)
			if len(got) != 2 || got[0].ID != failed || got[0].Attempt != 1 || got[1].ID != waiting {
				t.Fatalf("Drain abandoned %v, want the retry of job %d and job %d", got, failed, waiting)
			}
		} else {
			got := o.TakeAll()
			if len(got) != 2 || got[0].ID != waiting || got[1].ID != failed || got[1].Attempt != 1 {
				t.Fatalf("TakeAll took %v, want job %d then the retry of job %d", got, waiting, failed)
			}
			for _, job := range got {
				job.Fail("taken")
			}
			if fired != 2 {
				t.Fatalf("%d callbacks came back with the taken jobs, want 2", fired)
			}
		}
		if len(o.retries) != 0 || o.Queued() != 0 || o.Pending() != 2 {
			t.Fatalf("after recovery: %d retries, %d queued, %d pending; want 0, 0 and the 2 running", len(o.retries), o.Queued(), o.Pending())
		}
	}
}

// TestRetryOnOneBoardRunsThere fails a job on an orchestrator's only
// board while another job waits: with no other board, the retry runs
// there, at once, as a retry goes to a free board ahead of the backlog.
func TestRetryOnOneBoardRunsThere(t *testing.T) {
	lot, o := parkedRack(t, 1)
	o.attempt.MaxAttempts = 2
	o.Submit("f", nil)
	waiting := o.Submit("f", nil)
	first := lot.runs[0]
	first.done(Result{Job: first.job, WorkerID: first.w.id, Err: "boom"})
	if len(lot.runs) != 2 || lot.runs[1].job.ID != first.job.ID || lot.runs[1].job.Attempt != 1 {
		t.Fatalf("%d runs: want the retry of job %d on the only board", len(lot.runs), first.job.ID)
	}
	retry := lot.runs[1]
	retry.done(Result{Job: retry.job, WorkerID: retry.w.id})
	if len(lot.runs) != 3 || lot.runs[2].job.ID != waiting {
		t.Fatalf("%d runs: want job %d next", len(lot.runs), waiting)
	}
}

// pmParkWorker is a parkWorker the power manager can switch: a wake takes
// a second of engine time, and ups counts them.
type pmParkWorker struct {
	*parkWorker
	e   *sim.Engine
	ups int
}

func (w *pmParkWorker) PowerUp(_ string, _ int64, ready func()) {
	w.ups++
	w.e.Schedule(time.Second, ready)
}

func (w *pmParkWorker) PowerDown(string) bool { return true }

// TestTakeUnderPowerManager runs least-loaded under a power manager. Two
// boards wake for the first two jobs and three more wait on the backlog.
// A board that completes an attempt takes the backlog's head and starts
// it at once, with no second wake. A board whose attempt failed is
// power-cycled and still takes the next head: the job waits out the fresh
// boot rather than leave the backlog to a board that may never come free.
func TestTakeUnderPowerManager(t *testing.T) {
	e := sim.NewEngine(1)
	lot := &parkingLot{}
	a := &pmParkWorker{parkWorker: &parkWorker{id: "a", lot: lot}, e: e}
	b := &pmParkWorker{parkWorker: &parkWorker{id: "b", lot: lot}, e: e}
	pm, err := powermgr.New(powermgr.Config{
		Runtime: SimRuntime{Engine: e}, Nodes: []powermgr.Node{a, b}, Policy: powermgr.Policy{IdleTimeout: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{Runtime: SimRuntime{Engine: e}, Workers: []Worker{a, b}, Policy: AssignLeastLoaded, PowerManager: pm})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 5; i++ {
		ids = append(ids, o.Submit("f", nil))
	}
	if o.backlog.qlen() != 3 {
		t.Fatalf("%d jobs on the backlog while both boards wake, want 3", o.backlog.qlen())
	}
	e.RunAll() // both boards wake and start a job
	if len(lot.runs) != 2 {
		t.Fatalf("%d runs after the wakes, want 2", len(lot.runs))
	}
	onA := lot.runs[0]
	if onA.w.id != "a" {
		onA = lot.runs[1]
	}
	onA.done(Result{Job: onA.job, WorkerID: "a"})
	took := lot.runs[len(lot.runs)-1]
	if len(lot.runs) != 3 || took.w.id != "a" || took.job.ID != ids[2] {
		t.Fatalf("%d runs: want a to take job %d, the backlog's head", len(lot.runs), ids[2])
	}
	if a.ups != 1 || pm.StateName("a") != "on" {
		t.Fatalf("a woke %d times and is %q: the take should start it as it stands", a.ups, pm.StateName("a"))
	}
	took.done(Result{Job: took.job, WorkerID: "a", Err: "boom"})
	if len(lot.runs) != 3 || pm.StateName("a") != "waking" || a.ups != 2 {
		t.Fatalf("after a failed: %d runs, a %q after %d wakes; want a power-cycled and waking for job %d", len(lot.runs), pm.StateName("a"), a.ups, ids[3])
	}
	e.RunAll()
	if len(lot.runs) != 4 || lot.runs[3].w.id != "a" || lot.runs[3].job.ID != ids[3] {
		t.Fatalf("%d runs: want a to run job %d after its fresh boot", len(lot.runs), ids[3])
	}
}

// TestAddedWorkerTakes adds a board beside a backlog: it takes the
// backlog's head at once.
func TestAddedWorkerTakes(t *testing.T) {
	lot, o := parkedRack(t, 1)
	var ids []int64
	for i := 0; i < 3; i++ {
		ids = append(ids, o.Submit("f", nil))
	}
	if err := o.AddWorker(&parkWorker{id: "added", lot: lot}); err != nil {
		t.Fatal(err)
	}
	if len(lot.runs) != 2 || lot.runs[1].w.id != "added" || lot.runs[1].job.ID != ids[1] {
		t.Fatalf("%d runs: want the added board running job %d", len(lot.runs), ids[1])
	}
}

// TestSealedNeverTakes seals an orchestrator that holds a backlog: a
// board going free takes nothing, and TakeAll recovers the backlog whole.
func TestSealedNeverTakes(t *testing.T) {
	lot, o := parkedRack(t, 2)
	for i := 0; i < 4; i++ {
		o.Submit("f", nil)
	}
	o.Seal()
	run := lot.runs[1]
	run.done(Result{Job: run.job, WorkerID: run.w.id})
	if len(lot.runs) != 2 {
		t.Fatalf("a sealed orchestrator dispatched %d more jobs", len(lot.runs)-2)
	}
	if got := len(o.TakeAll()); got != 2 || o.Queued() != 0 {
		t.Fatalf("TakeAll recovered %d jobs and left %d queued, want the 2 waiting and none", got, o.Queued())
	}
}

// TestOnlyLeastLoadedTakes keeps two boards busy and submits two more jobs
// under every policy, then frees the second board: least-loaded's jobs
// wait on the backlog and that board takes the first of them; every other
// policy bound them at submit, so no job bound to the first board moves.
func TestOnlyLeastLoadedTakes(t *testing.T) {
	for _, policy := range []AssignPolicy{AssignRandom, AssignRoundRobin, AssignLeastLoaded, AssignEnergyAware} {
		lot := &parkingLot{}
		o, err := New(Config{
			Runtime: SimRuntime{Engine: sim.NewEngine(1)}, Policy: policy,
			Workers: []Worker{&parkWorker{id: "a", lot: lot}, &parkWorker{id: "b", lot: lot}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"a", "b"} {
			if _, err := o.SubmitTo(id, "f", nil); err != nil {
				t.Fatal(err)
			}
		}
		first := o.Submit("f", nil)
		o.Submit("f", nil)
		onA := o.byID["a"].qlen()
		run := lot.runs[1]
		run.done(Result{Job: run.job, WorkerID: "b"})
		if policy == AssignLeastLoaded {
			if onA != 0 || len(lot.runs) != 3 || lot.runs[2].w.id != "b" || lot.runs[2].job.ID != first {
				t.Fatalf("least-loaded: b did not take job %d, the backlog's head", first)
			}
			continue
		}
		if o.backlog.qlen() != 0 || o.byID["a"].qlen() != onA {
			t.Fatalf("%v: a backlog of %d, or a's queue moved from %d to %d", policy, o.backlog.qlen(), onA, o.byID["a"].qlen())
		}
	}
}

// TestSubmitToStaysPinned queues three jobs on a with SubmitTo under
// least-loaded and frees b: a job placed with SubmitTo runs only on its
// board, so b takes none of them.
func TestSubmitToStaysPinned(t *testing.T) {
	lot, o := parkedRack(t, 2)
	for i := 0; i < 3; i++ {
		if _, err := o.SubmitTo("w00000", "f", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := o.SubmitTo("w00001", "f", nil); err != nil {
		t.Fatal(err)
	}
	run := lot.runs[1]
	run.done(Result{Job: run.job, WorkerID: run.w.id})
	if len(lot.runs) != 2 || o.byID["w00000"].qlen() != 2 {
		t.Fatalf("%d runs, %d queued on w00000: a pinned job moved", len(lot.runs), o.byID["w00000"].qlen())
	}
}

// TestEjectedBoardsTakeOnceNoneIsEligible ejects b and backs a job up
// behind a, the only eligible board. When a's deadline trips its breaker
// too, every board is pickable again, and b takes the backlog's head at
// once. Removing the only eligible board does the same.
func TestEjectedBoardsTakeOnceNoneIsEligible(t *testing.T) {
	for _, remove := range []bool{false, true} {
		e := sim.NewEngine(1)
		lot := &parkingLot{}
		o, err := New(Config{
			Runtime: SimRuntime{Engine: e}, Workers: []Worker{&parkWorker{id: "a", lot: lot}, &parkWorker{id: "b", lot: lot}},
			Policy: AssignLeastLoaded, AttemptPolicy: AttemptPolicy{JobTimeout: time.Second, BreakerThreshold: 1, BreakerProbe: time.Hour},
		})
		if err != nil {
			t.Fatal(err)
		}
		o.Submit("f", nil) // on b, the last registered
		onB := lot.runs[0]
		onB.done(Result{Job: onB.job, WorkerID: "b", Err: "boom"}) // b's breaker opens
		o.Submit("f", nil)                                         // on a, the only eligible board
		waiting := o.Submit("f", nil)
		if len(lot.runs) != 2 || lot.runs[1].w.id != "a" || o.backlog.qlen() != 1 {
			t.Fatalf("%d runs, backlog %d: want a running and one job waiting while b is ejected", len(lot.runs), o.backlog.qlen())
		}
		if remove {
			if err := o.RemoveWorker("a", nil); err != nil {
				t.Fatal(err)
			}
		} else {
			e.Step() // a's deadline expires and opens its breaker
		}
		if len(lot.runs) != 3 || lot.runs[2].w.id != "b" || lot.runs[2].job.ID != waiting {
			t.Fatalf("remove=%v: %d runs; want b to take job %d once no board is eligible", remove, len(lot.runs), waiting)
		}
	}
}

// TestFailedBoardStillTakes fails the first of three jobs on an
// orchestrator's only board: the board still takes the backlog's head.
// Holding a board whose last attempt failed back from the backlog would
// strand it here, where no other board can come free to take it.
func TestFailedBoardStillTakes(t *testing.T) {
	lot, o := parkedRack(t, 1)
	for i := 0; i < 3; i++ {
		o.Submit("f", nil)
	}
	for i := 0; i < 3; i++ {
		if len(lot.runs) != i+1 {
			t.Fatalf("after %d settles: %d runs, want %d", i, len(lot.runs), i+1)
		}
		run := lot.runs[i]
		run.done(Result{Job: run.job, WorkerID: run.w.id, Err: "boom"})
	}
	if o.Pending() != 0 {
		t.Fatalf("%d jobs still pending", o.Pending())
	}
}

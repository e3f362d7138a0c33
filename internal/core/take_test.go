package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"microfaas/internal/powermgr"
	"microfaas/internal/sim"
	"microfaas/internal/telemetry"
)

// idleBesideQueue names a board the policy could pick, whose last attempt
// did not fail, that sits free with an empty queue while the deepest queue
// (by scan) holds a newest job it may run — the state least-loaded's take
// rules out — or returns "" when there is none. A board may not run a
// retry that failed on it.
func idleBesideQueue(o *Orchestrator) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	r := referenceMost(o.slots)
	if r < 0 {
		return ""
	}
	victim := o.slots[r]
	newest := victim.queue[len(victim.queue)-1]
	for _, s := range o.slots {
		if !s.busy && !s.waking && s.qlen() == 0 && s.health.consec == 0 &&
			(s.eligPos >= 0 || len(o.eligible) == 0) && (newest.Attempt == 0 || o.retryOff[newest.ID] != s) {
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
// could pick is free with an empty queue while a sibling holds a queued
// job, every job settles once, and no retry runs on the board its last
// attempt failed on.
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
		if id := idleBesideQueue(o); id != "" {
			t.Fatalf("at %v: %s is free with an empty queue beside a queued job", e.Now(), id)
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

// deepestTail is the scan the take's victim is held to: the newest job of
// the lowest-ranked slot at the highest load of at least 2. ok is false
// when there is none.
func deepestTail(o *Orchestrator) (job Job, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if r := referenceMost(o.slots); r >= 0 {
		s := o.slots[r]
		return s.queue[len(s.queue)-1], true
	}
	return Job{}, false
}

// checkQueueCounts holds Queued() and every worker's queue-depth gauge to
// a scan of the queues.
func checkQueueCounts(t *testing.T, o *Orchestrator, after string) {
	t.Helper()
	total := o.Queued()
	o.mu.Lock()
	defer o.mu.Unlock()
	sum := 0
	for _, s := range o.slots {
		sum += s.qlen()
		if g := s.m.queueDepth.Value(); g != float64(s.qlen()) {
			t.Fatalf("after %s: %s's queue-depth gauge reads %v, its queue holds %d", after, s.id, g, s.qlen())
		}
	}
	if total != sum {
		t.Fatalf("after %s: Queued() = %d, the queues hold %d", after, total, sum)
	}
}

// sameJob compares every field of two jobs without arguments.
func sameJob(a, b Job) bool {
	return a.ID == b.ID && a.Function == b.Function && a.SubmittedAt == b.SubmittedAt &&
		a.Attempt == b.Attempt && a.Timeout == b.Timeout && a.Args == nil && b.Args == nil
}

// TestTakeKeepsJobIdentity places 60 jobs built elsewhere (distinct submit
// times, attempts and deadlines, each with a callback) on four parked
// boards and settles the attempts in a seeded random order. Whenever a
// settled board has nothing queued, it takes exactly the scan's victim:
// the newest job of the deepest queue. Every job runs and calls back once
// as it was submitted, its trace row names the board that ran it, and
// Queued() and the queue-depth gauges match the queues after every step.
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
		j := Job{ID: int64(1000 + i), Function: "f", SubmittedAt: time.Duration(i) * time.Millisecond, Attempt: i % 3, Timeout: time.Hour}
		want[j.ID] = j
		if _, err := o.SubmitJob(j, func(r Result) {
			fired[r.Job.ID]++
			if !sameJob(r.Job, want[r.Job.ID]) {
				t.Errorf("job %d called back as %+v, submitted as %+v", r.Job.ID, r.Job, want[r.Job.ID])
			}
		}); err != nil {
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
		ownEmpty := o.byID[run.w.id].qlen() == 0
		o.mu.Unlock()
		tail, victim := deepestTail(o)
		before := len(lot.runs)
		run.done(Result{Job: run.job, WorkerID: run.w.id})
		checkQueueCounts(t, o, "a settle")
		if ownEmpty && victim {
			takes++
			if len(lot.runs) != before+1 || lot.runs[before].w != run.w || lot.runs[before].job.ID != tail.ID {
				t.Fatalf("%s settled with nothing queued: want it to take job %d, the deepest queue's newest", run.w.id, tail.ID)
			}
		}
	}
	if takes == 0 {
		t.Fatal("no board ever took a job")
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
// queue. When the backoff ends with the other board busy, the retry
// queues behind that board's job, and the board it failed on, though
// free, neither runs nor takes it.
func TestParkedRetryIsNeverTaken(t *testing.T) {
	e := sim.NewEngine(1)
	lot := &parkingLot{}
	o, err := New(Config{
		Runtime: SimRuntime{Engine: e}, Workers: []Worker{&parkWorker{id: "a", lot: lot}, &parkWorker{id: "b", lot: lot}},
		Policy: AssignLeastLoaded, AttemptPolicy: AttemptPolicy{MaxAttempts: 2, RetryBase: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.Submit("f", nil) // on a
	o.Submit("f", nil) // on b
	failed, other := lot.runs[0], lot.runs[1]
	failed.done(Result{Job: failed.job, WorkerID: "a", Err: "boom"})
	other.done(Result{Job: other.job, WorkerID: "b"})
	if len(lot.runs) != 2 || len(o.parked) != 1 || o.Pending() != 1 {
		t.Fatalf("with the retry parked: %d runs, %d parked, %d pending; want 2, 1, 1", len(lot.runs), len(o.parked), o.Pending())
	}
	if _, err := o.SubmitTo("b", "f", nil); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if len(lot.runs) != 3 || o.Queued() != 1 {
		t.Fatalf("after the backoff: %d runs, %d queued; want the retry queued behind b's job", len(lot.runs), o.Queued())
	}
	busy := lot.runs[2]
	busy.done(Result{Job: busy.job, WorkerID: "b"})
	if len(lot.runs) != 4 || lot.runs[3].w.id != "b" || lot.runs[3].job.ID != failed.job.ID || lot.runs[3].job.Attempt != 1 {
		t.Fatalf("%d runs: want the retry of job %d on b", len(lot.runs), failed.job.ID)
	}
}

// TestRetryNeverReturnsToItsBoard fails a job on a with no backoff while b
// is busy: the retry queues behind b's job rather than run at once on a,
// the only free board. a then completes a new job with nothing queued and
// still does not take the retry; b runs it.
func TestRetryNeverReturnsToItsBoard(t *testing.T) {
	lot := &parkingLot{}
	o, err := New(Config{
		Runtime: SimRuntime{Engine: sim.NewEngine(1)}, Workers: []Worker{&parkWorker{id: "a", lot: lot}, &parkWorker{id: "b", lot: lot}},
		Policy: AssignLeastLoaded, AttemptPolicy: AttemptPolicy{MaxAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.Submit("f", nil) // on a
	o.Submit("f", nil) // on b
	failed := lot.runs[0]
	failed.done(Result{Job: failed.job, WorkerID: "a", Err: "boom"})
	if len(lot.runs) != 2 || o.Queued() != 1 {
		t.Fatalf("after a failed: %d runs, %d queued; want the retry queued behind b's job", len(lot.runs), o.Queued())
	}
	o.Submit("f", nil) // on a, the least loaded
	fresh := lot.runs[2]
	if fresh.w.id != "a" {
		t.Fatalf("a new job went to %s, want a", fresh.w.id)
	}
	fresh.done(Result{Job: fresh.job, WorkerID: "a"})
	if len(lot.runs) != 3 {
		t.Fatalf("a took job %d attempt %d, a retry that failed on it", lot.runs[3].job.ID, lot.runs[3].job.Attempt)
	}
	busy := lot.runs[1]
	busy.done(Result{Job: busy.job, WorkerID: "b"})
	if len(lot.runs) != 4 || lot.runs[3].w.id != "b" || lot.runs[3].job.ID != failed.job.ID || lot.runs[3].job.Attempt != 1 {
		t.Fatalf("%d runs: want the retry of job %d on b", len(lot.runs), failed.job.ID)
	}
	if len(o.retryOff) != 0 {
		t.Fatalf("%d retry exclusions outlive their jobs", len(o.retryOff))
	}
	checkRetriesMoved(t, o)
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

// TestTakeUnderPowerManager runs least-loaded under a power manager. A
// board that completes an attempt with nothing queued takes the newest
// job of the deepest queue and starts it at once, with no second wake. A
// board whose attempt failed takes nothing while the manager
// power-cycles it.
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
	if _, err := o.SubmitTo("a", "f", nil); err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 4; i++ {
		id, err := o.SubmitTo("b", "f", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
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
	if len(lot.runs) != 3 || took.w.id != "a" || took.job.ID != ids[3] {
		t.Fatalf("%d runs: want a to take job %d, b's newest", len(lot.runs), ids[3])
	}
	if a.ups != 1 || pm.StateName("a") != "on" {
		t.Fatalf("a woke %d times and is %q: the take should start it as it stands", a.ups, pm.StateName("a"))
	}
	took.done(Result{Job: took.job, WorkerID: "a", Err: "boom"})
	e.RunAll()
	if len(lot.runs) != 3 || o.Queued() != 2 {
		t.Fatalf("after a failed: %d runs, %d queued; want a to take nothing", len(lot.runs), o.Queued())
	}
	if a.ups != 1 || pm.StateName("a") != "off" {
		t.Fatalf("a woke %d times and is %q; want it power-cycled off and not woken", a.ups, pm.StateName("a"))
	}
}

// TestAddedWorkerTakes adds a board beside a queue: it takes the newest
// queued job at once.
func TestAddedWorkerTakes(t *testing.T) {
	lot, o := parkedRack(t, 1)
	var last int64
	for i := 0; i < 3; i++ {
		last, _ = o.SubmitTo("w00000", "f", nil)
	}
	if err := o.AddWorker(&parkWorker{id: "added", lot: lot}); err != nil {
		t.Fatal(err)
	}
	if len(lot.runs) != 2 || lot.runs[1].w.id != "added" || lot.runs[1].job.ID != last {
		t.Fatalf("%d runs: want the added board running job %d", len(lot.runs), last)
	}
}

// TestSealedNeverTakes seals an orchestrator that holds a queue: a board
// going free takes nothing, and TakeAll recovers the queue whole.
func TestSealedNeverTakes(t *testing.T) {
	lot, o := parkedRack(t, 2)
	for i := 0; i < 3; i++ {
		if _, err := o.SubmitTo("w00000", "f", nil); err != nil {
			t.Fatal(err)
		}
	}
	o.Submit("f", nil) // on w00001
	o.Seal()
	run := lot.runs[1]
	run.done(Result{Job: run.job, WorkerID: run.w.id})
	if len(lot.runs) != 2 {
		t.Fatalf("a sealed orchestrator dispatched %d more jobs", len(lot.runs)-2)
	}
	if got := len(o.TakeAll()); got != 2 {
		t.Fatalf("TakeAll recovered %d jobs, want the 2 queued", got)
	}
}

// TestOnlyLeastLoadedTakes queues three jobs on one board and lets a
// second board go free under every policy: least-loaded's takes the
// newest queued job, and every other policy's stays idle.
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
		var ids []int64
		for i := 0; i < 3; i++ {
			id, err := o.SubmitTo("a", "f", nil)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if _, err := o.SubmitTo("b", "f", nil); err != nil {
			t.Fatal(err)
		}
		run := lot.runs[1]
		run.done(Result{Job: run.job, WorkerID: "b"})
		took := len(lot.runs) == 3
		if policy == AssignLeastLoaded {
			if !took || lot.runs[2].w.id != "b" || lot.runs[2].job.ID != ids[2] {
				t.Fatalf("least-loaded: b did not take job %d, a's newest", ids[2])
			}
		} else if took {
			t.Fatalf("%v: b took job %d", policy, lot.runs[2].job.ID)
		}
	}
}

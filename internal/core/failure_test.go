package core

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"microfaas/internal/sim"
)

// hangWorker wedges: RunJob optionally never invokes done, or invokes it
// only after a long delay — the sim-mode stand-in for a crashed or
// unreachable node.
type hangWorker struct {
	id     string
	engine *sim.Engine
	// lateAfter > 0: done fires that long after RunJob (a slow recovery);
	// zero: done never fires at all (a true wedge).
	lateAfter time.Duration
	mu        sync.Mutex
	runs      int
}

func (w *hangWorker) ID() string { return w.id }

func (w *hangWorker) RunJob(job Job, done func(Result)) {
	w.mu.Lock()
	w.runs++
	w.mu.Unlock()
	if w.lateAfter <= 0 {
		return // never reports back
	}
	started := w.engine.Now()
	w.engine.Schedule(w.lateAfter, func() {
		done(Result{Job: job, WorkerID: w.id, StartedAt: started, FinishedAt: w.engine.Now()})
	})
}

// errWorker fails every job immediately with an error.
type errWorker struct {
	id     string
	engine *sim.Engine
	mu     sync.Mutex
	runs   int
}

func (w *errWorker) ID() string { return w.id }

func (w *errWorker) RunJob(job Job, done func(Result)) {
	w.mu.Lock()
	w.runs++
	w.mu.Unlock()
	started := w.engine.Now()
	w.engine.Schedule(time.Millisecond, func() {
		done(Result{Job: job, WorkerID: w.id, Err: "boom", StartedAt: started, FinishedAt: w.engine.Now()})
	})
}

func TestDeadlineRescuesJobFromHungWorker(t *testing.T) {
	e := sim.NewEngine(7)
	hung := &hangWorker{id: "hung", engine: e}
	good := &fakeWorker{id: "good", engine: e, service: 10 * time.Millisecond}
	o, err := New(Config{
		Runtime: SimRuntime{Engine: e}, Workers: []Worker{hung, good},
		Seed: 11, AttemptPolicy: AttemptPolicy{MaxAttempts: 2, JobTimeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.SubmitTo("hung", "F", nil); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	recs := o.Collector().Records()
	if len(recs) != 2 {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].Worker != "hung" || !strings.Contains(recs[0].Err, "deadline") {
		t.Fatalf("attempt 0 = %+v", recs[0])
	}
	if recs[0].Finished != time.Second {
		t.Fatalf("deadline fired at %v, want 1s", recs[0].Finished)
	}
	// The retry landed on the healthy worker and succeeded.
	if recs[1].Worker != "good" || recs[1].Err != "" || recs[1].Attempt != 1 {
		t.Fatalf("attempt 1 = %+v", recs[1])
	}
	if o.Pending() != 0 {
		t.Fatal("job still pending after rescue")
	}
}

func TestDeadlineReassignsQueuedJobsOffWedgedWorker(t *testing.T) {
	e := sim.NewEngine(7)
	hung := &hangWorker{id: "hung", engine: e}
	good := &fakeWorker{id: "good", engine: e, service: 10 * time.Millisecond}
	o, err := New(Config{
		Runtime: SimRuntime{Engine: e}, Workers: []Worker{hung, good},
		Seed: 11, AttemptPolicy: AttemptPolicy{MaxAttempts: 2, JobTimeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three jobs pile onto the wedged worker's queue; the first hangs.
	for i := 0; i < 3; i++ {
		if _, err := o.SubmitTo("hung", "F", nil); err != nil {
			t.Fatal(err)
		}
	}
	e.RunAll()
	if o.Pending() != 0 {
		t.Fatalf("%d jobs still pending behind the hang", o.Pending())
	}
	// Jobs 2 and 3 never ran on the wedged worker — its queue was
	// reassigned when the deadline fired, so they completed on "good".
	ok := 0
	for _, r := range o.Collector().Records() {
		if r.Worker == "good" && r.Err == "" {
			ok++
		}
	}
	if ok != 3 { // jobs 2, 3, and job 1's retry
		t.Fatalf("healthy worker completed %d jobs, want 3", ok)
	}
	if hung.runs != 1 {
		t.Fatalf("wedged worker was handed %d jobs after hanging", hung.runs)
	}
}

func TestLateResultAfterDeadlineIsDiscardedAndUnwedges(t *testing.T) {
	e := sim.NewEngine(7)
	// Reports back 5s after starting — well past the 1s deadline.
	w := &hangWorker{id: "slow", engine: e, lateAfter: 5 * time.Second}
	o, err := New(Config{
		Runtime: SimRuntime{Engine: e}, Workers: []Worker{w},
		Seed: 11, AttemptPolicy: AttemptPolicy{JobTimeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.Submit("F", nil)
	o.Submit("F", nil)
	e.RunAll()
	// Both attempts timed out (MaxAttempts 1 → no retries), and the late
	// done callbacks produced no duplicate records; the second job was
	// dispatched only after the first's late recovery freed the worker.
	recs := o.Collector().Records()
	if len(recs) != 2 {
		t.Fatalf("records = %+v", recs)
	}
	for _, r := range recs {
		if !strings.Contains(r.Err, "deadline") {
			t.Fatalf("record = %+v", r)
		}
	}
	if recs[1].Started != 5*time.Second {
		t.Fatalf("second job started at %v, want 5s (after late recovery)", recs[1].Started)
	}
	if o.Pending() != 0 {
		t.Fatal("pending jobs left")
	}
	for _, h := range o.Health() {
		if h.Busy {
			t.Fatalf("worker %s still marked busy", h.ID)
		}
		if h.TimedOut != 2 {
			t.Fatalf("health = %+v", h)
		}
	}
}

func TestRetryBackoffScheduleIsDeterministic(t *testing.T) {
	run := func() []time.Duration {
		e := sim.NewEngine(7)
		a := &errWorker{id: "a", engine: e}
		b := &errWorker{id: "b", engine: e}
		o, err := New(Config{
			Runtime: SimRuntime{Engine: e}, Workers: []Worker{a, b},
			Seed: 11, AttemptPolicy: AttemptPolicy{MaxAttempts: 3, RetryBase: 100 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		o.Submit("F", nil)
		e.RunAll()
		var starts []time.Duration
		for _, r := range o.Collector().Records() {
			starts = append(starts, r.Started)
		}
		return starts
	}
	starts := run()
	if len(starts) != 3 {
		t.Fatalf("attempts = %v", starts)
	}
	// Attempt n starts after the previous finished (+1ms service) plus a
	// jittered delay in [d/2, d], d = RetryBase·2^(n-1).
	gap1 := starts[1] - starts[0] - time.Millisecond
	gap2 := starts[2] - starts[1] - time.Millisecond
	if gap1 < 50*time.Millisecond || gap1 > 100*time.Millisecond {
		t.Fatalf("first backoff %v outside [50ms,100ms]", gap1)
	}
	if gap2 < 100*time.Millisecond || gap2 > 200*time.Millisecond {
		t.Fatalf("second backoff %v outside [100ms,200ms]", gap2)
	}
	// Same seed, same schedule: the jitter comes from the seeded RNG.
	again := run()
	for i := range starts {
		if starts[i] != again[i] {
			t.Fatalf("schedule not deterministic: %v vs %v", starts, again)
		}
	}
}

func TestBreakerOpensEjectsAndProbes(t *testing.T) {
	e := sim.NewEngine(7)
	bad := &errWorker{id: "bad", engine: e}
	good := &fakeWorker{id: "good", engine: e, service: time.Millisecond}
	o, err := New(Config{
		Runtime: SimRuntime{Engine: e}, Workers: []Worker{bad, good},
		Seed: 11, AttemptPolicy: AttemptPolicy{BreakerThreshold: 2, BreakerProbe: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two consecutive failures trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := o.SubmitTo("bad", "F", nil); err != nil {
			t.Fatal(err)
		}
		e.RunAll()
	}
	if st := o.Health()[0].State; st != BreakerOpen {
		t.Fatalf("breaker = %v after threshold failures", st)
	}
	// While open, random assignment never picks the ejected worker.
	before := bad.runs
	for i := 0; i < 30; i++ {
		o.Submit("F", nil)
	}
	e.RunAll()
	if bad.runs != before {
		t.Fatalf("open breaker still received %d jobs", bad.runs-before)
	}
	if len(good.runs) < 30 {
		t.Fatalf("healthy worker ran %d of 30", len(good.runs))
	}
	// Past the probe interval the breaker is half-open: the worker is
	// assignable, and its next failure re-opens the breaker.
	e.Schedule(15*time.Second, func() {})
	e.RunAll()
	if st := o.Health()[0].State; st != BreakerHalfOpen {
		t.Fatalf("breaker = %v after probe interval", st)
	}
	if _, err := o.SubmitTo("bad", "F", nil); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if st := o.Health()[0].State; st != BreakerOpen {
		t.Fatalf("breaker = %v after failed probe", st)
	}
	// A successful attempt closes it for good.
	o.mu.Lock()
	o.noteAttemptLocked(o.byID["bad"], true, false)
	o.mu.Unlock()
	if st := o.Health()[0].State; st != BreakerClosed {
		t.Fatalf("breaker = %v after successful probe", st)
	}
}

func TestBreakerSuccessResetsConsecutiveFailures(t *testing.T) {
	e := sim.NewEngine(7)
	w := &fakeWorker{id: "w", engine: e, service: time.Millisecond}
	o, err := New(Config{
		Runtime: SimRuntime{Engine: e}, Workers: []Worker{w},
		Seed: 11, AttemptPolicy: AttemptPolicy{BreakerThreshold: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.mu.Lock()
	o.noteAttemptLocked(o.byID["w"], false, false)
	o.noteAttemptLocked(o.byID["w"], false, false)
	o.noteAttemptLocked(o.byID["w"], true, false) // success wipes the streak
	o.noteAttemptLocked(o.byID["w"], false, false)
	o.mu.Unlock()
	h := o.Health()[0]
	if h.State != BreakerClosed || h.ConsecutiveFailures != 1 {
		t.Fatalf("health = %+v", h)
	}
	if h.Completed != 1 || h.Failed != 3 {
		t.Fatalf("health counters = %+v", h)
	}
}

func TestAllBreakersOpenStillAssigns(t *testing.T) {
	e := sim.NewEngine(7)
	a := &errWorker{id: "a", engine: e}
	b := &errWorker{id: "b", engine: e}
	o, err := New(Config{
		Runtime: SimRuntime{Engine: e}, Workers: []Worker{a, b},
		Seed: 11, AttemptPolicy: AttemptPolicy{BreakerThreshold: 1, BreakerProbe: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if _, err := o.SubmitTo(id, "F", nil); err != nil {
			t.Fatal(err)
		}
	}
	e.RunAll()
	// Both breakers open; submission must still land somewhere rather
	// than blow up or silently drop.
	if id := o.Submit("F", nil); id == 0 {
		t.Fatal("submit rejected with all breakers open")
	}
	e.RunAll()
	if o.Pending() != 0 {
		t.Fatal("job never ran")
	}
}

func TestDrainAbandonsQueuedJobs(t *testing.T) {
	rt := NewWallRuntime()
	w := &goWorker{id: "w", service: 30 * time.Millisecond}
	o, err := New(Config{Runtime: rt, Workers: []Worker{w}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var firedMu sync.Mutex
	firedIDs := map[int64]bool{}
	for i := 0; i < 6; i++ {
		o.SubmitAsync("F", nil, func(res Result) {
			firedMu.Lock()
			firedIDs[res.Job.ID] = true
			firedMu.Unlock()
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 75*time.Millisecond)
	defer cancel()
	abandoned := o.Drain(ctx)
	if len(abandoned) == 0 {
		t.Fatal("nothing abandoned although the drain deadline was shorter than the queue")
	}
	for i := 1; i < len(abandoned); i++ {
		if abandoned[i-1].ID >= abandoned[i].ID {
			t.Fatalf("abandoned jobs not sorted: %+v", abandoned)
		}
	}
	if !o.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	// New work is refused once draining.
	if id := o.Submit("F", nil); id != 0 {
		t.Fatalf("submit during drain accepted as job %d", id)
	}
	if _, err := o.SubmitTo("w", "F", nil); err == nil {
		t.Fatal("SubmitTo during drain accepted")
	}
	// The in-flight job finishes in the background and pending hits zero.
	o.Quiesce()
	if o.Pending() != 0 {
		t.Fatalf("pending = %d after drain + quiesce", o.Pending())
	}
	// Abandoned jobs never fire their callbacks.
	time.Sleep(50 * time.Millisecond)
	firedMu.Lock()
	defer firedMu.Unlock()
	for _, j := range abandoned {
		if firedIDs[j.ID] {
			t.Fatalf("abandoned job %d fired its callback", j.ID)
		}
	}
	if len(firedIDs)+len(abandoned) != 6 {
		t.Fatalf("%d callbacks + %d abandoned != 6 submissions", len(firedIDs), len(abandoned))
	}
}

func TestDrainReturnsNilWhenAllWorkFinishes(t *testing.T) {
	rt := NewWallRuntime()
	w := &goWorker{id: "w", service: time.Millisecond}
	o, err := New(Config{Runtime: rt, Workers: []Worker{w}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		o.Submit("F", nil)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if abandoned := o.Drain(ctx); abandoned != nil {
		t.Fatalf("abandoned %+v with an ample deadline", abandoned)
	}
	if o.Collector().Len() != 5 {
		t.Fatalf("completed %d of 5", o.Collector().Len())
	}
}

func TestDrainStopsRetries(t *testing.T) {
	rt := NewWallRuntime()
	// Always-failing live-style worker: errors come back on goroutines.
	w := &goErrWorker{id: "w", service: 10 * time.Millisecond}
	o, err := New(Config{
		Runtime: rt, Workers: []Worker{w}, Seed: 3,
		AttemptPolicy: AttemptPolicy{MaxAttempts: 100, RetryBase: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.Submit("F", nil)
	time.Sleep(30 * time.Millisecond) // let a retry or two park
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	o.Drain(ctx)
	o.Quiesce()
	n := o.Collector().Len()
	time.Sleep(100 * time.Millisecond)
	if got := o.Collector().Len(); got != n {
		t.Fatalf("attempts kept coming after drain: %d → %d", n, got)
	}
}

// goErrWorker fails every job from a real goroutine (live-mode shape).
type goErrWorker struct {
	id      string
	service time.Duration
}

func (w *goErrWorker) ID() string { return w.id }

func (w *goErrWorker) RunJob(job Job, done func(Result)) {
	go func() {
		time.Sleep(w.service)
		done(Result{Job: job, WorkerID: w.id, Err: "boom"})
	}()
}

func TestStartArrivalsStopPreventsInFlightTick(t *testing.T) {
	rt := NewWallRuntime()
	w := &goWorker{id: "w", service: time.Millisecond}
	o, err := New(Config{Runtime: rt, Workers: []Worker{w}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Hammer start/stop at a tick interval short enough that stop races
	// the tick; the stopped re-check under o.mu must win every time.
	for i := 0; i < 20; i++ {
		stop, err := o.StartArrivals(time.Millisecond, 1, func(*rand.Rand) (string, []byte) {
			return "F", nil
		})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
		stop()
	}
	o.Quiesce()
	n := o.Collector().Len()
	time.Sleep(20 * time.Millisecond)
	if got := o.Collector().Len(); got != n {
		t.Fatalf("arrivals after stop: %d → %d", n, got)
	}
}

func TestFailureConfigValidation(t *testing.T) {
	e := sim.NewEngine(1)
	w := &fakeWorker{id: "w", engine: e, service: time.Millisecond}
	base := Config{Runtime: SimRuntime{Engine: e}, Workers: []Worker{w}}
	for name, mutate := range map[string]func(*Config){
		"negative timeout":   func(c *Config) { c.JobTimeout = -time.Second },
		"negative base":      func(c *Config) { c.RetryBase = -time.Second },
		"negative threshold": func(c *Config) { c.BreakerThreshold = -1 },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

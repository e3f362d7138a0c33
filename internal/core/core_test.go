package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"microfaas/internal/sim"
	"microfaas/internal/trace"
)

// fakeWorker is a sim-driven worker with a fixed service time that records
// overlap violations (run-to-completion means never two jobs at once).
type fakeWorker struct {
	id      string
	engine  *sim.Engine
	service time.Duration
	mu      sync.Mutex
	running int
	overlap bool
	runs    []string
}

func (w *fakeWorker) ID() string { return w.id }

func (w *fakeWorker) RunJob(job Job, done func(Result)) {
	w.mu.Lock()
	w.running++
	if w.running > 1 {
		w.overlap = true
	}
	w.runs = append(w.runs, job.Function)
	w.mu.Unlock()
	started := w.engine.Now()
	w.engine.Schedule(w.service, func() {
		w.mu.Lock()
		w.running--
		w.mu.Unlock()
		done(Result{
			Job: job, WorkerID: w.id,
			StartedAt: started, FinishedAt: w.engine.Now(),
			Boot: w.service / 3, Exec: w.service / 2, Overhead: w.service / 6,
		})
	})
}

func newSimCluster(t *testing.T, n int, service time.Duration) (*sim.Engine, *Orchestrator, []*fakeWorker) {
	t.Helper()
	e := sim.NewEngine(7)
	workers := make([]*fakeWorker, n)
	ws := make([]Worker, n)
	for i := range workers {
		workers[i] = &fakeWorker{id: fmt.Sprintf("w%02d", i), engine: e, service: service}
		ws[i] = workers[i]
	}
	o, err := New(Config{Runtime: SimRuntime{Engine: e}, Workers: ws, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return e, o, workers
}

func TestSubmitRunsJob(t *testing.T) {
	e, o, _ := newSimCluster(t, 1, time.Second)
	id := o.Submit("FloatOps", []byte(`{}`))
	if id != 1 {
		t.Fatalf("job id = %d", id)
	}
	e.RunAll()
	recs := o.Collector().Records()
	if len(recs) != 1 || recs[0].Function != "FloatOps" || recs[0].Err != "" {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].Finished != time.Second {
		t.Fatalf("finished at %v", recs[0].Finished)
	}
}

func TestRunToCompletionNeverOverlaps(t *testing.T) {
	e, o, workers := newSimCluster(t, 3, 100*time.Millisecond)
	for i := 0; i < 50; i++ {
		o.Submit("F", nil)
	}
	e.RunAll()
	for _, w := range workers {
		if w.overlap {
			t.Fatalf("worker %s ran two jobs at once", w.id)
		}
	}
	if got := o.Collector().Len(); got != 50 {
		t.Fatalf("completed %d of 50", got)
	}
}

func TestQueuedJobsDrainInFIFOOrder(t *testing.T) {
	e, o, workers := newSimCluster(t, 1, 10*time.Millisecond)
	for i := 0; i < 5; i++ {
		o.Submit(fmt.Sprintf("f%d", i), nil)
	}
	e.RunAll()
	w := workers[0]
	for i, fn := range w.runs {
		if fn != fmt.Sprintf("f%d", i) {
			t.Fatalf("run order = %v", w.runs)
		}
	}
}

func TestSubmitSpreadsAcrossWorkers(t *testing.T) {
	e, o, workers := newSimCluster(t, 10, time.Millisecond)
	for i := 0; i < 500; i++ {
		o.Submit("F", nil)
	}
	e.RunAll()
	for _, w := range workers {
		if len(w.runs) < 20 {
			t.Fatalf("worker %s got only %d of 500 jobs — assignment not random", w.id, len(w.runs))
		}
	}
}

func TestSubmitTo(t *testing.T) {
	e, o, workers := newSimCluster(t, 3, time.Millisecond)
	if _, err := o.SubmitTo("w02", "F", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := o.SubmitTo("nope", "F", nil); err == nil {
		t.Fatal("unknown worker accepted")
	}
	e.RunAll()
	if len(workers[2].runs) != 1 || len(workers[0].runs) != 0 {
		t.Fatal("SubmitTo did not target the named worker")
	}
}

func TestPendingAndQueueDepth(t *testing.T) {
	e, o, _ := newSimCluster(t, 1, time.Second)
	o.Submit("F", nil)
	o.Submit("F", nil)
	o.Submit("F", nil)
	if got := o.Pending(); got != 3 {
		t.Fatalf("Pending = %d", got)
	}
	if got := queueDepth(o, "w00"); got != 2 { // one running, two queued
		t.Fatalf("QueueDepth = %d", got)
	}
	e.RunAll()
	if o.Pending() != 0 || queueDepth(o, "w00") != 0 {
		t.Fatal("cluster did not drain")
	}
}

func TestStartArrivalsEnqueuesEveryTick(t *testing.T) {
	e, o, _ := newSimCluster(t, 10, 50*time.Millisecond)
	stop, err := o.StartArrivals(time.Second, 4, func(rng *rand.Rand) (string, []byte) {
		return "F", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ticks at 1s..10s inclusive when running to 10s → 10 ticks × 4 jobs.
	e.Run(10 * time.Second)
	stop()
	e.Run(11 * time.Second)
	if got := o.Collector().Len(); got != 40 {
		t.Fatalf("completed %d jobs, want 40", got)
	}
	// After stop, no further arrivals.
	e.Run(20 * time.Second)
	if got := o.Collector().Len(); got != 40 {
		t.Fatalf("arrivals continued after stop: %d", got)
	}
}

func TestStartArrivalsValidation(t *testing.T) {
	_, o, _ := newSimCluster(t, 3, time.Millisecond)
	gen := func(*rand.Rand) (string, []byte) { return "F", nil }
	if _, err := o.StartArrivals(0, 1, gen); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := o.StartArrivals(time.Second, 0, gen); err == nil {
		t.Fatal("zero sample accepted")
	}
	if _, err := o.StartArrivals(time.Second, 4, gen); err == nil {
		t.Fatal("sample larger than cluster accepted")
	}
	stop, err := o.StartArrivals(time.Second, 2, gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.StartArrivals(time.Second, 2, gen); err == nil {
		t.Fatal("second concurrent arrival process accepted")
	}
	stop()
	if _, err := o.StartArrivals(time.Second, 2, gen); err != nil {
		t.Fatalf("restart after stop failed: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	e := sim.NewEngine(1)
	w := &fakeWorker{id: "w", engine: e, service: time.Millisecond}
	if _, err := New(Config{Workers: []Worker{w}}); err == nil {
		t.Fatal("missing runtime accepted")
	}
	if _, err := New(Config{Runtime: SimRuntime{Engine: e}}); err == nil {
		t.Fatal("no workers accepted")
	}
	dup := &fakeWorker{id: "w", engine: e, service: time.Millisecond}
	if _, err := New(Config{Runtime: SimRuntime{Engine: e}, Workers: []Worker{w, dup}}); err == nil {
		t.Fatal("duplicate worker ids accepted")
	}
}

func TestCollectorInjection(t *testing.T) {
	e := sim.NewEngine(1)
	coll := trace.NewCollector()
	w := &fakeWorker{id: "w", engine: e, service: time.Millisecond}
	o, err := New(Config{Runtime: SimRuntime{Engine: e}, Workers: []Worker{w}, Collector: coll})
	if err != nil {
		t.Fatal(err)
	}
	o.Submit("F", nil)
	e.RunAll()
	if coll.Len() != 1 {
		t.Fatal("injected collector not used")
	}
}

// goWorker completes jobs on real goroutines — exercises live-mode
// concurrency paths (WallRuntime + Quiesce).
type goWorker struct {
	id      string
	service time.Duration
}

func (w *goWorker) ID() string { return w.id }

func (w *goWorker) RunJob(job Job, done func(Result)) {
	go func() {
		time.Sleep(w.service)
		done(Result{Job: job, WorkerID: w.id})
	}()
}

func TestWallRuntimeQuiesce(t *testing.T) {
	rt := NewWallRuntime()
	ws := []Worker{
		&goWorker{id: "a", service: 10 * time.Millisecond},
		&goWorker{id: "b", service: 5 * time.Millisecond},
	}
	o, err := New(Config{Runtime: rt, Workers: ws, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		o.Submit("F", nil)
	}
	doneCh := make(chan struct{})
	go func() { o.Quiesce(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("Quiesce never returned")
	}
	if o.Collector().Len() != 20 {
		t.Fatalf("completed %d of 20", o.Collector().Len())
	}
	if o.Pending() != 0 {
		t.Fatal("pending after quiesce")
	}
}

func TestWallRuntimeArrivals(t *testing.T) {
	rt := NewWallRuntime()
	ws := []Worker{&goWorker{id: "a", service: time.Millisecond}}
	o, err := New(Config{Runtime: rt, Workers: ws, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	stop, err := o.StartArrivals(20*time.Millisecond, 1, func(*rand.Rand) (string, []byte) {
		return "F", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	stop()
	o.Quiesce()
	got := o.Collector().Len()
	if got < 3 || got > 12 {
		t.Fatalf("wall arrivals produced %d jobs in ~150ms at 20ms cadence", got)
	}
}

// queueDepth reads a worker's queued (not yet running) jobs off Health.
func queueDepth(o *Orchestrator, id string) int {
	for _, h := range o.Health() {
		if h.ID == id {
			return h.QueueDepth
		}
	}
	return 0
}

package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"microfaas/internal/core"
)

// nullWorker settles every job inside RunJob, so a submit through it is the
// control plane's own cost with no goroutine hand-off.
type nullWorker struct{ id string }

func (w nullWorker) ID() string { return w.id }
func (w nullWorker) RunJob(job core.Job, done func(core.Result)) {
	done(core.Result{Job: job, WorkerID: w.id})
}

// wallPlane builds a plane over n wall-clock shards, one worker each.
func wallPlane(t *testing.T, n int, worker func(id string) core.Worker) *Plane {
	t.Helper()
	shards := make([]*core.Orchestrator, n)
	for i := range shards {
		label := fmt.Sprintf("shard-%02d", i)
		o, err := core.New(core.Config{
			Runtime:    core.NewWallRuntime(),
			Workers:    []core.Worker{worker(label + "-w")},
			Seed:       1,
			JobIDBase:  int64(i) << 40,
			ShardLabel: label,
		})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = o
	}
	p, err := NewPlane(shards[0].Runtime(), shards, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestPlaneSubmitAllocs pins the plane tier at zero allocations per
// routed submit, so fronting every live request with a plane costs none:
// route snapshots the loads into the plane's own slice and the bounded
// walk reads it through a method value bound once. 32 shards is the
// benchmark's sim_sharded shape.
func TestPlaneSubmitAllocs(t *testing.T) {
	for _, n := range []int{4, 32} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			p := wallPlane(t, n, func(id string) core.Worker { return nullWorker{id: id} })
			keys := make([]string, 64)
			for i := range keys {
				keys[i] = fmt.Sprintf("u/%d", i)
			}
			args := []byte(`{}`)
			settled := false
			cb := func(core.Result) { settled = true }
			i := 0
			submit := func() {
				settled = false
				if id, _ := p.Submit(keys[i%len(keys)], "CascSHA", args, cb); id == 0 || !settled {
					t.Fatal("null worker did not settle the job inside submit")
				}
				i++
			}
			for i < 2000 {
				submit()
			}
			if got := testing.AllocsPerRun(1000, submit); got != 0 {
				t.Fatalf("%v allocations per routed submit, want 0", got)
			}
			if p.Pending() != 0 {
				t.Fatal("jobs stuck")
			}
		})
	}
}

// asyncWorker settles every job on a fresh goroutine, so jobs queue
// behind it and its shard's counts move while readers poll them.
type asyncWorker struct{ id string }

func (w asyncWorker) ID() string { return w.id }
func (w asyncWorker) RunJob(job core.Job, done func(core.Result)) {
	go done(core.Result{Job: job, WorkerID: w.id})
}

// TestShardLoadReadsRace drives concurrent routed submits into four
// wall-clock shards while readers poll every lock-free load count (the
// plane's Pending and Status, each shard's Queued and Draining), and
// seals shard 1 once midway, as a dying shard is: failover takes the
// rest of its routed work. Under -race it holds the counts to their
// discipline: written under the shard's lock, read anywhere. Once the
// submitters stop, shard 1's frozen jobs are recovered with TakeAll and
// resubmitted on shard 0 (a death's transport); every accepted job
// settles exactly once, and after quiesce nothing is pending or queued.
func TestShardLoadReadsRace(t *testing.T) {
	p := wallPlane(t, 4, func(id string) core.Worker { return asyncWorker{id: id} })
	const submitters, perSubmitter = 4, 500
	var submitted atomic.Int64
	// A job's callback runs after its shard's lock is released, so it can
	// trail Quiesce; settled counts callbacks still to come, and settles
	// counts each job's callbacks.
	var settled sync.WaitGroup
	var mu sync.Mutex
	settles := map[int64]int{}
	onSettle := func(r core.Result) {
		mu.Lock()
		settles[r.Job.ID]++
		mu.Unlock()
		settled.Done()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	poll := func(read func()) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}()
	}
	poll(func() {
		if p.Pending() < 0 {
			t.Error("negative plane pending count")
		}
	})
	poll(func() { _ = p.Status() })
	poll(func() {
		for _, o := range p.Shards() {
			if o.Queued() < 0 {
				t.Error("negative queued count")
			}
			_ = o.Draining()
		}
	})

	sealed := p.Shards()[1]
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				if g == 0 && i == perSubmitter/4 {
					sealed.Seal()
					if !sealed.Draining() {
						t.Error("a sealed shard does not report draining")
					}
				}
				settled.Add(1)
				id, _ := p.Submit(fmt.Sprintf("k/%d/%d", g, i%16), "CascSHA", nil, onSettle)
				if id == 0 {
					settled.Done()
					t.Error("every shard refused a submit")
					return
				}
				submitted.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for _, job := range sealed.TakeAll() {
		if id, err := p.Shards()[0].SubmitJob(job); err != nil || id != job.ID {
			t.Fatalf("resubmitting job %d on shard 0: id %d, err %v", job.ID, id, err)
		}
	}
	for _, o := range p.Shards() {
		o.Quiesce()
	}
	settled.Wait()
	if got := submitted.Load(); got != submitters*perSubmitter {
		t.Fatalf("%d jobs accepted, want %d", got, submitters*perSubmitter)
	}
	if len(settles) != submitters*perSubmitter {
		t.Fatalf("%d distinct jobs settled, want %d", len(settles), submitters*perSubmitter)
	}
	for id, n := range settles {
		if n != 1 {
			t.Fatalf("job %d settled %d times", id, n)
		}
	}
	if got := p.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after quiesce, want 0", got)
	}
	for i, o := range p.Shards() {
		if got := o.Queued(); got != 0 {
			t.Fatalf("shard %d: Queued() = %d after quiesce, want 0", i, got)
		}
	}
}

// heldWorker keeps every job it is given until the test releases it.
type heldWorker struct {
	id   string
	mu   *sync.Mutex
	held *[]func()
}

func (w heldWorker) ID() string { return w.id }
func (w heldWorker) RunJob(job core.Job, done func(core.Result)) {
	w.mu.Lock()
	*w.held = append(*w.held, func() { done(core.Result{Job: job, WorkerID: w.id}) })
	w.mu.Unlock()
}

// TestPlaceFallbacks moves jobs taken off shard 0 while the other shards
// refuse them. A destination that refuses sends the job back to its
// victim; once every shard refuses, the job's callback fires once with
// the draining error, scatter counts it nowhere, and no shard's pending
// count holds it.
func TestPlaceFallbacks(t *testing.T) {
	var mu sync.Mutex
	var held []func()
	p := wallPlane(t, 3, func(id string) core.Worker { return heldWorker{id: id, mu: &mu, held: &held} })
	victim := p.Shards()[0]
	fired := map[int64][]string{}
	cb := func(r core.Result) { fired[r.Job.ID] = append(fired[r.Job.ID], r.Err) }
	for i := 0; i < 4; i++ {
		victim.SubmitAsync("f", nil, cb)
	}
	jobs := victim.TakeQueued(2)
	if len(jobs) != 2 || victim.Pending() != 2 {
		t.Fatalf("took %d jobs, victim holds %d; want 2 and 2", len(jobs), victim.Pending())
	}

	p.Shards()[1].Seal()
	if d := p.place(jobs[0], 1, 0); d != 0 || victim.Pending() != 3 || victim.Queued() != 2 {
		t.Fatalf("placed on %d, victim holds %d (%d queued); want the victim, 3 and 2", d, victim.Pending(), victim.Queued())
	}

	p.Shards()[2].Seal()
	victim.Seal()
	pending := p.pendingExcept(0)
	p.scatter(jobs[1:], 0, pending, nil)
	if errs := fired[jobs[1].ID]; len(errs) != 1 || errs[0] != "shard: cluster draining, job not rescheduled" {
		t.Fatalf("the refused job was called back with %q, want the draining error once", errs)
	}
	if pending[0] != 0 || pending[1] != 0 || pending[2] != 0 || p.StolenTotal() != 0 || p.Pending() != 3 {
		t.Fatalf("pending snapshot %v, %d stolen, %d pending after the refusal; want zeros and 3", pending, p.StolenTotal(), p.Pending())
	}

	if got := victim.TakeAll(); len(got) != 2 || p.Pending() != 1 {
		t.Fatalf("TakeAll recovered %d jobs, %d left pending; want 2 and the running one", len(got), p.Pending())
	}
	mu.Lock()
	run := held
	mu.Unlock()
	for _, done := range run {
		done()
	}
	if p.Pending() != 0 || len(fired) != 2 {
		t.Fatalf("%d pending, %d jobs called back; want 0 and 2", p.Pending(), len(fired))
	}
	for id, errs := range fired {
		if len(errs) != 1 {
			t.Fatalf("job %d called back %d times", id, len(errs))
		}
	}
}

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
	for _, st := range sealed.TakeAll() {
		if id, err := p.Shards()[0].SubmitJob(st.Job, st.Callback); err != nil || id != st.Job.ID {
			t.Fatalf("resubmitting job %d on shard 0: id %d, err %v", st.Job.ID, id, err)
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

package shard

import (
	"fmt"
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

// TestPlaneSubmitAllocs pins the plane tier at zero allocations per
// routed submit, so fronting every live request with a plane costs none:
// the bounded-load walk reads loads through its callback and keeps its
// visited set on the ring.
func TestPlaneSubmitAllocs(t *testing.T) {
	shards := make([]*core.Orchestrator, 4)
	for i := range shards {
		label := fmt.Sprintf("shard-%02d", i)
		o, err := core.New(core.Config{
			Runtime:    core.NewWallRuntime(),
			Workers:    []core.Worker{nullWorker{id: label + "-null"}},
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
	defer p.Close()
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
}

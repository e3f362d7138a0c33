package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"microfaas/internal/sim"
)

// TestRemoveWorkerMovesItsQueue: a removed worker's queued jobs run on the
// workers that remain — including when exactly one remains, where the
// "nowhere to move them" guard used to see the already-shrunk slot list and
// strand the queue on a slot that would never dispatch again.
func TestRemoveWorkerMovesItsQueue(t *testing.T) {
	const jobs = 8
	for _, workers := range []int{2, 3} {
		for _, busy := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/busy=%v", workers, busy), func(t *testing.T) {
				e := sim.NewEngine(7)
				var ws []Worker
				for i := 0; i < workers; i++ {
					ws = append(ws, &fakeWorker{id: fmt.Sprintf("w%02d", i), engine: e, service: 10 * time.Millisecond})
				}
				// Round-robin: every worker ends up running one job with more
				// queued behind it.
				o, err := New(Config{Runtime: SimRuntime{Engine: e}, Workers: ws, Policy: AssignRoundRobin})
				if err != nil {
					t.Fatal(err)
				}
				fired := map[int64]int{}
				submit := func() {
					for i := 0; i < jobs; i++ {
						if o.SubmitAsync("f", nil, func(r Result) { fired[r.Job.ID]++ }) == 0 {
							t.Fatal("submission refused")
						}
					}
				}
				var released []string
				handoff := func(w Worker) { released = append(released, w.ID()) }
				if busy {
					submit()
					if got := queueDepth(o, "w01"); got == 0 {
						t.Fatal("the victim has nothing queued; the test would prove nothing")
					}
				}
				if err := o.RemoveWorker("w01", handoff); err != nil {
					t.Fatal(err)
				}
				if busy && len(released) != 0 {
					t.Fatal("a busy worker was handed off before its attempt settled")
				}
				if !busy {
					submit()
				}
				e.RunAll()
				if got := o.Pending(); got != 0 {
					t.Errorf("Pending() = %d after the run, want 0", got)
				}
				if len(fired) != jobs {
					t.Errorf("%d of %d callbacks fired", len(fired), jobs)
				}
				for id, n := range fired {
					if n != 1 {
						t.Errorf("job %d's callback fired %d times", id, n)
					}
				}
				if len(released) != 1 || released[0] != "w01" {
					t.Errorf("handoff saw %v, want [w01]", released)
				}
			})
		}
	}
}

// TestAddWorkerRegistersAsNew: workers registered one at a time through
// AddWorker land exactly as New registers a list — the same order, trace
// ordinals and least-loaded picks — since both run one registration path.
func TestAddWorkerRegistersAsNew(t *testing.T) {
	const n = 6
	build := func(oneByOne bool) (*Orchestrator, *sim.Engine) {
		e := sim.NewEngine(3)
		var ws []Worker
		for i := 0; i < n; i++ {
			ws = append(ws, &fakeWorker{id: fmt.Sprintf("w%02d", i), engine: e, service: time.Duration(i+1) * time.Millisecond})
		}
		first := ws
		if oneByOne {
			first = ws[:1]
		}
		o, err := New(Config{Runtime: SimRuntime{Engine: e}, Workers: first, Policy: AssignLeastLoaded})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws[len(first):] {
			if err := o.AddWorker(w); err != nil {
				t.Fatal(err)
			}
		}
		if err := o.AddWorker(ws[0]); err == nil {
			t.Fatal("a duplicate id was registered")
		}
		return o, e
	}
	bulk, be := build(false)
	single, se := build(true)
	if got, want := single.Workers(), bulk.Workers(); !slices.Equal(got, want) {
		t.Fatalf("workers %v, New's %v", got, want)
	}
	for i, id := range bulk.Workers() {
		if a, b := bulk.Collector().Worker(id), single.Collector().Worker(id); int(a) != i || a != b {
			t.Fatalf("%s: ordinals %d and %d, want %d", id, a, b, i)
		}
	}
	for _, run := range []struct {
		o *Orchestrator
		e *sim.Engine
	}{{bulk, be}, {single, se}} {
		for j := 0; j < 40; j++ {
			run.o.Submit("f", nil)
		}
		run.e.RunAll()
	}
	if got, want := single.Collector().Records(), bulk.Collector().Records(); len(got) != 40 || !reflect.DeepEqual(got, want) {
		t.Fatalf("the same 40 submissions settled differently (%d and %d records)", len(got), len(want))
	}
}

// TestSealedGivesUpItsLastWorker: RemoveWorker refuses an orchestrator's
// last worker while it is unsealed, and hands it over once it is sealed —
// a dead shard keeps no board. Under every binding policy and
// least-loaded, a busy last worker is handed off when its attempt
// settles, and a job still queued on it waits on the backlog for TakeAll.
func TestSealedGivesUpItsLastWorker(t *testing.T) {
	for _, policy := range []AssignPolicy{AssignRandom, AssignRoundRobin, AssignLeastLoaded, AssignEnergyAware} {
		lot := &parkingLot{}
		o, err := New(Config{Runtime: SimRuntime{Engine: sim.NewEngine(1)}, Policy: policy, Workers: []Worker{&parkWorker{id: "w", lot: lot}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := o.RemoveWorker("w", nil); err == nil {
			t.Fatalf("%v: an unsealed orchestrator gave up its last worker", policy)
		}
		for i := 0; i < 2; i++ {
			if _, err := o.SubmitTo("w", "f", nil); err != nil {
				t.Fatal(err)
			}
		}
		o.Seal()
		var released []string
		if err := o.RemoveWorker("w", func(w Worker) { released = append(released, w.ID()) }); err != nil {
			t.Fatalf("%v: a sealed orchestrator kept its last worker: %v", policy, err)
		}
		if len(o.Workers()) != 0 || len(released) != 0 || o.Queued() != 1 {
			t.Fatalf("%v: %d workers, %d released, %d queued; want none, none (still busy), the 1 waiting", policy, len(o.Workers()), len(released), o.Queued())
		}
		run := lot.runs[0]
		run.done(Result{Job: run.job, WorkerID: "w"})
		if len(released) != 1 || len(lot.runs) != 1 || o.Pending() != 1 {
			t.Fatalf("%v: %d released, %d runs, %d pending; want the worker handed off and the queued job held", policy, len(released), len(lot.runs), o.Pending())
		}
		if got := o.TakeAll(); len(got) != 1 || o.Pending() != 0 {
			t.Fatalf("%v: TakeAll recovered %d jobs, %d pending; want the 1 waiting", policy, len(got), o.Pending())
		}
	}
}

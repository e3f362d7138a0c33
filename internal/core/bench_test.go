package core

import (
	"fmt"
	"testing"

	"microfaas/internal/sim"
)

// parkingLot holds the attempts parkWorkers have been handed, oldest
// first, until the benchmark settles them.
type parkingLot struct {
	runs []parkedRun
	head int
}

type parkedRun struct {
	job  Job
	w    *parkWorker
	done func(Result)
}

type parkWorker struct {
	id  string
	lot *parkingLot
}

func (w *parkWorker) ID() string { return w.id }

func (w *parkWorker) RunJob(job Job, done func(Result)) {
	w.lot.runs = append(w.lot.runs, parkedRun{job: job, w: w, done: done})
}

// BenchmarkSubmitLeastLoaded measures one placement plus one settle under
// the least-loaded policy with half the rack kept busy: every submit takes
// a free board off its stack and every settle puts one back, so the cost
// of keeping the free stacks current is all in ns/op. It must not grow
// with the rack.
func BenchmarkSubmitLeastLoaded(b *testing.B) {
	for _, workers := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			lot, o := parkedRack(b, workers)
			step := func() {
				o.Submit("f", nil)
				if len(lot.runs)-lot.head > workers/2 {
					run := lot.runs[lot.head]
					lot.runs[lot.head] = parkedRun{}
					lot.head++
					if lot.head == len(lot.runs) {
						lot.runs, lot.head = lot.runs[:0], 0
					}
					run.done(Result{Job: run.job, WorkerID: run.w.id})
				}
			}
			for i := 0; i < 2*workers; i++ {
				step() // reach the half-busy steady state before timing
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
	// Every slot but the last is busy, so each pick finds the one free
	// board, the free stack's only entry: a lookup, not a scan of the
	// rack.
	b.Run("workers=16384/last-idle", func(b *testing.B) {
		lot, o := parkedRack(b, 16384)
		ids := o.Workers()
		for _, id := range ids[:len(ids)-1] {
			if _, err := o.SubmitTo(id, "f", nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.Submit("f", nil)
			run := lot.runs[len(lot.runs)-1]
			lot.runs = lot.runs[:len(lot.runs)-1]
			run.done(Result{Job: run.job, WorkerID: run.w.id})
		}
	})
}

// parkedRack is a least-loaded orchestrator over n parkWorkers.
func parkedRack(tb testing.TB, n int) (*parkingLot, *Orchestrator) {
	lot := &parkingLot{}
	ws := make([]Worker, n)
	for i := range ws {
		ws[i] = &parkWorker{id: fmt.Sprintf("w%05d", i), lot: lot}
	}
	o, err := New(Config{
		Runtime: SimRuntime{Engine: sim.NewEngine(1)},
		Workers: ws,
		Policy:  AssignLeastLoaded,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return lot, o
}

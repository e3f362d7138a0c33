package core

import (
	"testing"
	"time"

	"microfaas/internal/sim"
)

// jouleWorker reports a fixed metered energy on every completed job, so
// budget accounting is exact without a full power-model rig.
type jouleWorker struct {
	id      string
	engine  *sim.Engine
	service time.Duration
	joules  float64
}

func (w *jouleWorker) ID() string { return w.id }

func (w *jouleWorker) RunJob(job Job, done func(Result)) {
	w.engine.Schedule(w.service, func() {
		done(Result{Job: job, WorkerID: w.id, Joules: w.joules})
	})
}

func TestEnergyBudgetAccountingAndExhaustion(t *testing.T) {
	e := sim.NewEngine(1)
	w := &jouleWorker{id: "w0", engine: e, service: 10 * time.Millisecond, joules: 10}
	o, err := New(Config{
		Runtime: SimRuntime{Engine: e}, Workers: []Worker{w},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.SetEnergyBudget("F", 25)
	// Two 10 J jobs: 20 J spent, under the 25 J cap.
	o.Submit("F", nil)
	o.Submit("F", nil)
	e.RunAll()
	bs := o.EnergyBudgets()
	if len(bs) != 1 || bs[0].Function != "F" {
		t.Fatalf("budgets = %+v", bs)
	}
	if bs[0].SpentJoules != 20 || bs[0].Exhausted {
		t.Fatalf("after 2 jobs: spent %.0f exhausted %v, want 20 J not exhausted",
			bs[0].SpentJoules, bs[0].Exhausted)
	}
	// The third crosses the cap and latches exhaustion.
	o.Submit("F", nil)
	e.RunAll()
	if bs = o.EnergyBudgets(); !bs[0].Exhausted || bs[0].SpentJoules != 30 {
		t.Fatalf("after 3 jobs: %+v, want exhausted at 30 J", bs[0])
	}
	// An unbudgeted function is never tracked.
	o.Submit("G", nil)
	e.RunAll()
	if bs = o.EnergyBudgets(); len(bs) != 1 {
		t.Fatalf("unbudgeted function grew the budget list: %+v", bs)
	}
	// Raising the cap above the spend clears the latch; removal drops the
	// budget entirely.
	o.SetEnergyBudget("F", 100)
	if bs = o.EnergyBudgets(); bs[0].Exhausted || bs[0].LimitJoules != 100 {
		t.Fatalf("after raise: %+v, want limit 100 not exhausted", bs[0])
	}
	o.SetEnergyBudget("F", 0)
	if bs = o.EnergyBudgets(); len(bs) != 0 {
		t.Fatalf("after removal: %+v, want empty", bs)
	}
}

package node

import (
	"fmt"
	"testing"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/gpio"
	"microfaas/internal/model"
	"microfaas/internal/power"
	"microfaas/internal/sim"
)

// coldJobAllocs is the average allocation count of one cold ARM job,
// RunJob to done, on w after a warm-up job.
func coldJobAllocs(w *SimWorker, e *sim.Engine) float64 {
	finished := 0
	done := func(core.Result) { finished++ }
	job := core.Job{ID: 1, Function: "CascSHA"}
	return testing.AllocsPerRun(1000, func() {
		job.ID++
		w.RunJob(job, done)
		e.RunAll()
	})
}

// TestSimJobAllocatesNothing pins a job's cost: its state lives in the
// worker and its phases are method values bound at construction, so a
// cold ARM job allocates nothing; the GPIO log's chunked growth adds
// amortized allocations well under one per job.
func TestSimJobAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	e := sim.NewEngine(1)
	bare, err := NewSimWorker(SimWorkerConfig{ID: "sbc-00", Platform: model.ARM, Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	if got := coldJobAllocs(bare, e); got != 0 {
		t.Fatalf("cold ARM job: %v allocations, want 0", got)
	}
	wired, err := NewSimWorker(SimWorkerConfig{ID: "sbc-01", Platform: model.ARM, Engine: e, GPIO: gpio.NewController()})
	if err != nil {
		t.Fatal(err)
	}
	if got := coldJobAllocs(wired, e); got >= 0.1 {
		t.Fatalf("cold ARM job with GPIO: %v allocations, want < 0.1", got)
	}
}

// TestNewSimWorkerCostFlatInFunctions: a worker holds its cluster's
// table, so building one costs the same at 1 function as at 170.
func TestNewSimWorkerCostFlatInFunctions(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	build := func(n int) float64 {
		specs := make([]model.FunctionSpec, n)
		for i := range specs {
			specs[i] = model.Functions()[i%17]
			specs[i].Name = fmt.Sprintf("fn-%03d", i)
		}
		fns := NewFunctionTable(specs)
		e := sim.NewEngine(1)
		meter, ctl := power.NewMeter(), gpio.NewController()
		i := 0
		return testing.AllocsPerRun(100, func() {
			i++
			if _, err := NewSimWorker(SimWorkerConfig{
				ID: fmt.Sprint(i), Platform: model.ARM, Engine: e, Meter: meter, GPIO: ctl, Functions: fns,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := build(1), build(170); one != many {
		t.Fatalf("NewSimWorker: %v allocations over a 1-function table, %v over 170", one, many)
	}
}

// TestWorkersShareDefaultTable: workers that name no table share one.
func TestWorkersShareDefaultTable(t *testing.T) {
	e := sim.NewEngine(1)
	a := newARMWorker(t, e, nil)
	b, err := NewSimWorker(SimWorkerConfig{ID: "sbc-01", Platform: model.ARM, Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	if a.cfg.Functions == nil || a.cfg.Functions != b.cfg.Functions {
		t.Fatalf("default tables %p and %p, want one shared table", a.cfg.Functions, b.cfg.Functions)
	}
}

// recorder is a metered worker that logs its jobs' starts and
// worker-side results, and the joules its meter read over each job.
type recorder struct {
	*SimWorker
	e       *sim.Engine
	log     []string
	results []core.Result
	joules  []float64
}

func (r *recorder) RunJob(job core.Job, done func(core.Result)) {
	r.log = append(r.log, fmt.Sprintf("start %d at %v", job.ID, r.e.Now()))
	e0 := r.dev.Energy(r.e.Now())
	r.SimWorker.RunJob(job, func(res core.Result) {
		r.log = append(r.log, fmt.Sprintf("done %d at %v", res.Job.ID, r.e.Now()))
		r.results = append(r.results, res)
		r.joules = append(r.joules, float64(r.dev.Energy(r.e.Now())-e0))
		done(res)
	})
}

// TestJobStateSurvivesDeadline: a job outlives its deadline with a second
// job queued behind it on the same worker. The second starts only once
// the first's done fired, so the one per-worker job record is never
// shared, and each result carries its own id, output and joules.
func TestJobStateSurvivesDeadline(t *testing.T) {
	e := sim.NewEngine(1)
	meter := power.NewMeter()
	w := &recorder{SimWorker: newARMWorker(t, e, meter), e: e}
	o, err := core.New(core.Config{
		Runtime: core.SimRuntime{Engine: e}, Workers: []core.Worker{w},
		JobTimeout: time.Second, // a cold boot alone is longer
	})
	if err != nil {
		t.Fatal(err)
	}
	fns := []string{"CascSHA", "FloatOps"}
	var ids []int64
	for _, fn := range fns {
		id, err := o.SubmitTo("sbc-00", fn, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e.RunAll()
	if len(w.results) != 2 || len(w.log) != 4 {
		t.Fatalf("log %q, want two starts and two dones", w.log)
	}
	first, second := w.results[0], w.results[1]
	if w.log[0] != fmt.Sprintf("start %d at 0s", ids[0]) ||
		w.log[1] != fmt.Sprintf("done %d at %v", ids[0], first.FinishedAt) ||
		w.log[2] != fmt.Sprintf("start %d at %v", ids[1], first.FinishedAt) {
		t.Fatalf("log %q: the second job must start when the first's done fires", w.log)
	}
	if first.FinishedAt-first.StartedAt <= time.Second {
		t.Fatalf("first job took %v, not past its 1s deadline", first.FinishedAt-first.StartedAt)
	}
	for i, res := range w.results {
		want := fmt.Sprintf(`{"simulated":true,"function":%q}`, fns[i])
		if res.Job.ID != ids[i] || res.Job.Function != fns[i] || string(res.Output) != want {
			t.Fatalf("result %d: job %d %s output %s, want job %d %s", i, res.Job.ID, res.Job.Function, res.Output, ids[i], fns[i])
		}
		if got := w.joules[i]; res.Joules <= 0 || res.Joules != got {
			t.Fatalf("result %d: %v J, want its own interval's %v J", i, res.Joules, got)
		}
	}
	if first.Joules == second.Joules {
		t.Fatalf("both jobs report %v J", first.Joules)
	}
}

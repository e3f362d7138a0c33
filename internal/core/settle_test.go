package core

import (
	"testing"
	"time"

	"microfaas/internal/sim"
	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
)

// outcomeWorker settles every job the way the test case says: a clean
// result, a failed one, or no report at all (the deadline settles it).
type outcomeWorker struct {
	engine *sim.Engine
	errMsg string
	hang   bool
	joules float64
}

func (w *outcomeWorker) ID() string { return "w0" }

func (w *outcomeWorker) RunJob(job Job, done func(Result)) {
	if w.hang {
		return
	}
	w.engine.Schedule(10*time.Millisecond, func() {
		done(Result{Job: job, WorkerID: "w0", Err: w.errMsg, Joules: w.joules, BootJoules: w.joules / 4,
			Boot: time.Millisecond, Exec: 9 * time.Millisecond})
	})
}

// TestSettleParity is the "cannot drift apart" property as an assertion:
// whichever way an attempt ends, it is written down exactly once in every
// sink, under the same outcome — one record, one attempt-counter bump,
// one settle event, one settle phase and a fault marker iff it failed in
// the job's trace, the worker's joules on its record, and one budget
// charge iff the worker metered any joules.
func TestSettleParity(t *testing.T) {
	cases := []struct {
		outcome string
		worker  outcomeWorker
	}{
		{"ok", outcomeWorker{}},
		{"ok", outcomeWorker{joules: 3}},
		{"error", outcomeWorker{errMsg: "boom"}},
		{"error", outcomeWorker{errMsg: "boom", joules: 3}}, // a crash still burned the energy
		{"timeout", outcomeWorker{hang: true}},
	}
	for _, tc := range cases {
		e := sim.NewEngine(1)
		w := tc.worker
		w.engine = e
		tel := telemetry.New()
		o, err := New(Config{
			Runtime: SimRuntime{Engine: e}, Workers: []Worker{&w},
			AttemptPolicy: AttemptPolicy{JobTimeout: time.Second}, Telemetry: tel,
		})
		if err != nil {
			t.Fatal(err)
		}
		o.SetEnergyBudget("F", 100)
		var final Result
		id := o.SubmitAsync("F", nil, func(r Result) { final = r })
		e.RunAll()
		failed := tc.outcome != "ok"
		name := tc.outcome
		if w.joules > 0 {
			name += "+joules"
		}

		recs := o.Collector().Records()
		if len(recs) != 1 || recs[0].JobID != id || (recs[0].Err != "") != failed {
			t.Fatalf("%s: records = %+v, want exactly one for job %d", name, recs, id)
		}
		if final.Job.ID != id || final.TimedOut != (tc.outcome == "timeout") || (final.Err != "") != failed {
			t.Fatalf("%s: callback result = %+v", name, final)
		}

		for _, s := range tel.Registry().Snapshot("", "") {
			if s.Name != metricAttempts {
				continue
			}
			want := 0.0
			if s.Labels["result"] == tc.outcome {
				want = 1
			}
			if s.Value != want {
				t.Fatalf("%s: %s{result=%q} = %v, want %v", name, metricAttempts, s.Labels["result"], s.Value, want)
			}
		}

		settles := 0
		for _, ev := range tel.Events().Since(0, 100) {
			if ev.Type == telemetry.EventSettle {
				settles++
				if ev.Detail != tc.outcome || ev.Job != id || ev.Worker != "w0" {
					t.Fatalf("%s: settle event = %+v", name, ev)
				}
			}
		}
		if settles != 1 {
			t.Fatalf("%s: %d settle events, want 1", name, settles)
		}

		// A timed-out attempt never reported, so it drew nothing the OP saw.
		wantJ := w.joules
		if w.hang {
			wantJ = 0
		}
		if recs[0].Joules != wantJ || recs[0].BootJoules != wantJ/4 {
			t.Fatalf("%s: record carries %v J (%v J boot), want %v J (%v J boot)", name, recs[0].Joules, recs[0].BootJoules, wantJ, wantJ/4)
		}
		tr, ok := trace.TraceOf(id, o.Collector())
		if !ok {
			t.Fatalf("%s: no trace", name)
		}
		settleSpans, faultSpans := 0, 0
		for _, s := range tr.Spans {
			switch s.Phase {
			case trace.PhaseSettle:
				settleSpans++
				if s.Detail != tc.outcome || s.Start != recs[0].Finished {
					t.Fatalf("%s: settle span = %+v, record finished at %v", name, s, recs[0].Finished)
				}
			case trace.PhaseFault:
				faultSpans++
				if s.Err != recs[0].Err {
					t.Fatalf("%s: fault span carries %q, record %q", name, s.Err, recs[0].Err)
				}
			}
		}
		wantFaults := 0
		if failed {
			wantFaults = 1
		}
		if settleSpans != 1 || faultSpans != wantFaults {
			t.Fatalf("%s: %d settle spans and %d fault spans, want 1 and %d", name, settleSpans, faultSpans, wantFaults)
		}

		if spent := o.EnergyBudgets()[0].SpentJoules; spent != w.joules {
			t.Fatalf("%s: budget charged %v J, want %v", name, spent, w.joules)
		}
		h := o.Health()[0]
		if h.Completed+h.Failed != 1 || (h.Failed == 1) != failed || (h.TimedOut == 1) != (tc.outcome == "timeout") {
			t.Fatalf("%s: worker health = %+v", name, h)
		}
	}
}

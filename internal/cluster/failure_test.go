package cluster

import (
	"strings"
	"testing"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/node"
	"microfaas/internal/trace"
)

// TestDeadlinesAndBreakerMaskHangs drives the simulated cluster with
// injected wedges: workers that power on and never report back. Without a
// deadline those jobs (and everything queued behind them) would be lost;
// with deadlines + the circuit breaker the suite completes, the wedged
// workers are ejected, and only the hung attempts show as errors.
func TestDeadlinesAndBreakerMaskHangs(t *testing.T) {
	s, err := NewMicroFaaSSim(8, SimConfig{
		Seed:        11,
		BoardConfig: node.BoardConfig{Faults: node.FaultPolicy{HangProb: 0.02}},
		AttemptPolicy: core.AttemptPolicy{
			MaxAttempts:      4,
			JobTimeout:       10 * time.Minute,
			BreakerThreshold: 1,
			BreakerProbe:     1000 * time.Hour, // never re-admit within the run
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := s.RunSuite(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	hangs := 0
	for _, w := range s.Workers {
		hangs += w.Hangs()
	}
	if hangs == 0 {
		t.Fatal("no wedges injected at 2% hang rate — the test exercised nothing")
	}
	// Every hang shows up as exactly one timed-out attempt...
	timeouts := 0
	finalErr := map[int64]bool{}
	for _, r := range coll.Records() {
		if strings.Contains(r.Err, "deadline") {
			timeouts++
		}
		finalErr[r.JobID] = r.Err != ""
	}
	if timeouts != hangs {
		t.Fatalf("%d deadline expiries for %d injected wedges", timeouts, hangs)
	}
	// ...and no job's final outcome is a failure: the retry on a fresh
	// worker masked every wedge.
	for id, bad := range finalErr {
		if bad {
			t.Fatalf("job %d failed despite retries", id)
		}
	}
	// Every wedged worker's breaker opened.
	open := 0
	for _, h := range s.Orch.Health() {
		if h.State == core.BreakerOpen {
			open++
			if h.TimedOut == 0 {
				t.Fatalf("worker %s breaker open without a timeout: %+v", h.ID, h)
			}
		}
	}
	if open == 0 {
		t.Fatal("no breaker opened despite wedges")
	}
}

func TestSlowInjectionStretchesTail(t *testing.T) {
	run := func(slowRate float64) time.Duration {
		s, err := NewMicroFaaSSim(4, SimConfig{Seed: 11, BoardConfig: node.BoardConfig{Faults: node.FaultPolicy{SlowProb: slowRate, SlowFactor: 20}}})
		if err != nil {
			t.Fatal(err)
		}
		coll, err := s.RunSuite(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		var worst time.Duration
		for _, r := range coll.Records() {
			if cycle := r.Boot + r.Overhead + r.Exec; cycle > worst {
				worst = cycle
			}
		}
		return worst
	}
	clean, straggly := run(0), run(0.2)
	if straggly < clean*3 {
		t.Fatalf("20x stragglers on 20%% of jobs only stretched worst case %v → %v", clean, straggly)
	}
}

// TestLiveHungWorkerDoesNotBlockQueue is the live-mode acceptance test for
// the failure path: a real TCP worker wedges (holds the connection open,
// never replies), and the OP's deadline rescues both the hung job and the
// jobs queued behind it, retrying on the healthy worker and opening the
// wedged worker's breaker.
func TestLiveHungWorkerDoesNotBlockQueue(t *testing.T) {
	l, err := StartLive(LiveOptions{Workers: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	hung, err := node.StartLiveWorker(node.LiveWorkerConfig{
		ID:              "wedge",
		Env:             l.Env,
		LiveBoardConfig: node.LiveBoardConfig{Faults: node.FaultPolicy{Seed: 1, HangProb: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hung.Close() }) //nolint:errcheck
	orch, err := core.New(core.Config{
		Runtime: core.NewWallRuntime(),
		Workers: []core.Worker{hung, l.Workers[0]},
		Seed:    3,
		AttemptPolicy: core.AttemptPolicy{
			MaxAttempts:      2,
			JobTimeout:       300 * time.Millisecond,
			BreakerThreshold: 1,
			BreakerProbe:     time.Hour,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three jobs straight into the wedged worker's queue: the first hangs
	// on the wire, two wait behind it.
	for i := 0; i < 3; i++ {
		if _, err := orch.SubmitTo("wedge", "CascSHA", []byte(`{"rounds":5,"seed":"x"}`)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() { orch.Quiesce(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cluster wedged: hung worker blocked its queue")
	}
	recs := orch.Collector().Records()
	// One timed-out attempt on the wedge; all three jobs finish on the
	// healthy worker.
	timeouts, completed := 0, 0
	for _, r := range recs {
		switch {
		case strings.Contains(r.Err, "deadline"):
			timeouts++
			if r.Worker != "wedge" {
				t.Fatalf("timeout attributed to %s: %+v", r.Worker, r)
			}
		case r.Err == "":
			completed++
			if r.Worker != "live-000" {
				t.Fatalf("success on unexpected worker: %+v", r)
			}
		default:
			t.Fatalf("unexpected failure: %+v", r)
		}
	}
	if timeouts != 1 || completed != 3 {
		t.Fatalf("%d timeouts, %d completions; records = %+v", timeouts, completed, recs)
	}
	h := orch.Health()[0]
	if h.ID != "wedge" || h.State != core.BreakerOpen || h.TimedOut != 1 {
		t.Fatalf("wedge health = %+v", h)
	}
	// With the breaker open, random assignment only reaches the healthy
	// worker.
	for i := 0; i < 5; i++ {
		orch.Submit("RegExMatch", []byte(`{"pattern":"a+","text":"aaa"}`))
	}
	orch.Quiesce()
	for _, r := range orch.Collector().Records()[len(recs):] {
		if r.Worker != "live-000" || r.Err != "" {
			t.Fatalf("post-breaker record = %+v", r)
		}
	}
}

// TestLiveErrorAndSlowFaultInjection exercises the other two live fault
// modes end-to-end: injected errors surface as failed invocations the OP
// can retry, and injected slowness delays but does not fail the reply.
func TestLiveErrorAndSlowFaultInjection(t *testing.T) {
	l, err := StartLive(LiveOptions{
		Workers:         2,
		Seed:            5,
		AttemptPolicy:   core.AttemptPolicy{MaxAttempts: 3},
		LiveBoardConfig: node.LiveBoardConfig{Faults: node.FaultPolicy{Seed: 7, ErrorProb: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	for i := 0; i < 12; i++ {
		l.Orch.Submit("RegExMatch", []byte(`{"pattern":"a+","text":"aaa"}`))
	}
	l.Orch.Quiesce()
	injected, finalErr := 0, map[int64]bool{}
	for _, r := range l.Orch.Collector().Records() {
		if strings.Contains(r.Err, "injected worker fault") {
			injected++
		}
		finalErr[r.JobID] = r.Err != ""
	}
	if injected == 0 {
		t.Fatal("no faults injected at 50% error rate")
	}
	failed := 0
	for _, bad := range finalErr {
		if bad {
			failed++
		}
	}
	// Per-job final failure probability is 0.5^3 = 12.5%; 12 jobs → allow a
	// generous band but require retries to have masked most injections.
	if failed > 6 {
		t.Fatalf("%d of 12 jobs failed after 3 attempts at 50%% injection", failed)
	}

	slow, err := StartLive(LiveOptions{
		Workers:         1,
		Seed:            5,
		LiveBoardConfig: node.LiveBoardConfig{Faults: node.FaultPolicy{Seed: 7, SlowProb: 1, SlowDelay: 200 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(slow.Close)
	start := time.Now()
	slow.Orch.Submit("RegExMatch", []byte(`{"pattern":"a+","text":"aaa"}`))
	slow.Orch.Quiesce()
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("slow fault did not delay: %v", elapsed)
	}
	if slow.Orch.Collector().ErrorCount() != 0 {
		t.Fatal("slow fault failed the job")
	}
}

// oneJob runs one RegExMatch job to its final outcome on a one-worker
// cluster of either half, with the given faults and attempt policy, and
// returns every attempt's record.
type oneJob func(t *testing.T, faults node.FaultPolicy, ap core.AttemptPolicy) []trace.Record

const parityFn, parityArgs = "RegExMatch", `{"pattern":"a+","text":"aaa"}`

func simOneJob(t *testing.T, faults node.FaultPolicy, ap core.AttemptPolicy) []trace.Record {
	s, err := NewMicroFaaSSim(1, SimConfig{Seed: 1, BoardConfig: node.BoardConfig{Faults: faults}, AttemptPolicy: ap})
	if err != nil {
		t.Fatal(err)
	}
	s.Orch.Submit(parityFn, []byte(parityArgs))
	s.Engine.RunAll()
	if n := s.Orch.Pending(); n != 0 {
		t.Fatalf("%d jobs still pending after the engine drained", n)
	}
	return s.Orch.Collector().Records()
}

func liveOneJob(t *testing.T, faults node.FaultPolicy, ap core.AttemptPolicy) []trace.Record {
	l, err := StartLive(LiveOptions{Workers: 1, Seed: 1, LiveBoardConfig: node.LiveBoardConfig{Faults: faults}, AttemptPolicy: ap})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Orch.Submit(parityFn, []byte(parityArgs))
	done := make(chan struct{})
	go func() { l.Orch.Quiesce(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("job never settled")
	}
	return l.Orch.Collector().Records()
}

// TestFaultPolicyParity runs one FaultPolicy through a one-board sim and
// a one-worker live cluster: the same spec must mean the same outcome on
// both halves, whatever each half's draw order and slow semantics.
func TestFaultPolicyParity(t *testing.T) {
	cycle := func(r trace.Record) time.Duration { return r.Finished - r.Started }
	for _, half := range []struct {
		name string
		run  oneJob
	}{{"sim", simOneJob}, {"live", liveOneJob}} {
		clean := half.run(t, node.FaultPolicy{}, core.AttemptPolicy{})
		if len(clean) != 1 || clean[0].Err != "" {
			t.Fatalf("%s: clean run records %+v", half.name, clean)
		}
		for _, c := range []struct {
			name   string
			faults node.FaultPolicy
			ap     core.AttemptPolicy
			want   func(rs []trace.Record) string // "" when rs is right
		}{{
			name:   "error",
			faults: node.FaultPolicy{Seed: 3, ErrorProb: 1},
			ap:     core.AttemptPolicy{MaxAttempts: 3},
			want: func(rs []trace.Record) string {
				if len(rs) != 3 {
					return "want 3 attempts"
				}
				for _, r := range rs {
					if !strings.Contains(r.Err, "injected worker fault") {
						return "an attempt did not fail with the injected fault"
					}
				}
				return ""
			},
		}, {
			// A wedged worker takes no second job, so one attempt.
			name:   "hang",
			faults: node.FaultPolicy{Seed: 3, HangProb: 1},
			ap:     core.AttemptPolicy{JobTimeout: 100 * time.Millisecond},
			want: func(rs []trace.Record) string {
				if len(rs) != 1 || !strings.Contains(rs[0].Err, "deadline") {
					return "want one attempt that timed out"
				}
				return ""
			},
		}, {
			name:   "slow",
			faults: node.FaultPolicy{Seed: 3, SlowProb: 1, SlowDelay: 200 * time.Millisecond},
			want: func(rs []trace.Record) string {
				if len(rs) != 1 || rs[0].Err != "" {
					return "want one successful attempt"
				}
				if cycle(rs[0]) <= cycle(clean[0]) {
					return "slow attempt no slower than the clean one"
				}
				return ""
			},
		}} {
			if rs := half.run(t, c.faults, c.ap); c.want(rs) != "" {
				t.Errorf("%s %s: %s; records %+v", half.name, c.name, c.want(rs), rs)
			}
		}
	}
}

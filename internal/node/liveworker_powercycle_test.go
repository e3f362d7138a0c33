package node

import (
	"testing"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/gpio"
	"microfaas/internal/powermgr"
	"microfaas/internal/workload"
)

// TestManagedLiveWorkerPowerCycleReconnects drives the full live fault
// power-cycle loop: a managed worker serves a job over the persistent
// connection, the power manager's NoteFault gates it off (dropping that
// connection, as a gated-off SBC would), and the next wake-on-demand job
// must transparently redial and succeed — no invocation lost to the
// cycle.
func TestManagedLiveWorkerPowerCycleReconnects(t *testing.T) {
	rt := core.NewWallRuntime()
	w, err := StartLiveWorker(LiveWorkerConfig{
		ID: "live-pc", Env: &workload.Env{}, Managed: true,
		Clock: rt.Now, LiveBoardConfig: LiveBoardConfig{BootDelay: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Long timeouts: this test power-cycles explicitly via NoteFault, so
	// the idle machinery must stay out of the way.
	m, err := powermgr.New(powermgr.Config{
		Runtime: rt, Nodes: []powermgr.Node{w},
		Policy: powermgr.Policy{IdleTimeout: time.Hour, MinUp: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	wake := func() {
		ready := make(chan struct{})
		if m.RequestUp("live-pc", "test", gpio.NoJob, func() { close(ready) }) {
			return // already up
		}
		select {
		case <-ready:
		case <-time.After(5 * time.Second):
			t.Fatal("wake never completed")
		}
	}
	run := func(id int64) core.Result {
		done := make(chan core.Result, 1)
		w.RunJob(core.Job{ID: id, Function: "CascSHA", Args: []byte(`{"rounds":5,"seed":"pc"}`)},
			func(r core.Result) { done <- r })
		select {
		case r := <-done:
			return r
		case <-time.After(10 * time.Second):
			t.Fatalf("job %d never settled", id)
			return core.Result{}
		}
	}

	wake()
	if r := run(1); r.Err != "" {
		t.Fatalf("job before the cycle failed: %s", r.Err)
	}
	// The job is done (worker back to Idle), so the fault-driven
	// power-down must succeed and drop the persistent connection.
	m.NoteFault("live-pc")
	if m.IsUp("live-pc") {
		t.Fatal("NoteFault left the worker up")
	}
	wake()
	if r := run(2); r.Err != "" {
		t.Fatalf("job after the power-cycle failed: %s", r.Err)
	}
	if !m.IsUp("live-pc") {
		t.Fatal("worker not up after the post-cycle wake")
	}
}

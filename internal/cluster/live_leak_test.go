package cluster

import (
	"runtime"
	"testing"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/node"
	"microfaas/internal/power"
	"microfaas/internal/powermgr"
)

// TestLiveCloseLeavesNothingRunning closes a faulty, power-managed live
// cluster mid-run: hung calls, deadline-settled attempts, idle power-downs
// that reset connections and wakes that redial them must all be gone
// afterwards, down to the goroutine count before the cluster started.
func TestLiveCloseLeavesNothingRunning(t *testing.T) {
	before := runtime.NumGoroutine()
	l, err := StartLive(LiveOptions{
		Workers:         4,
		Seed:            3,
		AttemptPolicy:   core.AttemptPolicy{MaxAttempts: 3, JobTimeout: 200 * time.Millisecond},
		LiveBoardConfig: node.LiveBoardConfig{Faults: node.FaultPolicy{Seed: 9, HangProb: 0.2}},
		Power:           &powermgr.Policy{IdleTimeout: 20 * time.Millisecond, MinUp: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 16
	for i := 0; i < jobs; i++ {
		l.Orch.Submit("RegExMatch", []byte(`{"pattern":"a+","text":"aaa"}`))
	}
	// A job queued behind a hung worker waits for that worker's own call
	// timeout, so the run is cut short rather than quiesced: Close must
	// settle what is still on the wire.
	deadline := time.Now().Add(5 * time.Second)
	for l.Orch.Collector().Len() < jobs && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // past the idle timeout: workers power down
	timedOut := false
	for _, r := range l.Orch.Collector().Records() {
		timedOut = timedOut || r.Err != "" && r.Exec == 0
	}
	poweredDown := false
	for _, e := range l.GPIO.Events() {
		poweredDown = poweredDown || e.From != power.Booting && e.To == power.Off
	}
	if !timedOut || !poweredDown {
		t.Fatalf("the run missed a path: hung attempt %v, power-down %v", timedOut, poweredDown)
	}
	l.Close()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLiveCloseWhileSeeding closes each cluster the moment StartLive
// returns, while its fixture may still be landing: Close must wait for the
// seeding goroutine and leave nothing running, 20 times over.
func TestLiveCloseWhileSeeding(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		l, err := StartLive(LiveOptions{Workers: 1, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

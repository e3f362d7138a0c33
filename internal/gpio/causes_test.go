package gpio_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/core"
	"microfaas/internal/powermgr"
)

// TestWakeCausesStayBounded runs a power-managed simulation whose every
// job wakes a powered-down worker. Each wake renders its job as
// "wake-on-demand (job N)", yet the controller's cause table holds only
// the static texts: a cause that carried its job id would add one entry a
// wake.
func TestWakeCausesStayBounded(t *testing.T) {
	const jobs = 1100
	s, err := cluster.NewMicroFaaSSim(4, cluster.SimConfig{
		Seed:   1,
		Policy: core.AssignEnergyAware,
		Power:  &powermgr.Policy{IdleTimeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Spaced past MinUp's 5 s floor, so every worker is off again when
	// the next job arrives.
	for i := 0; i < jobs; i++ {
		s.Engine.At(time.Duration(i)*20*time.Second, func() { s.Orch.Submit("CascSHA", nil) })
	}
	s.Engine.RunAll()
	wakes := 0
	for _, e := range s.GPIO.Events() {
		if !strings.HasPrefix(e.Cause, "wake-on-demand") {
			continue
		}
		var job int64
		if _, err := fmt.Sscanf(e.Cause, "wake-on-demand (job %d)", &job); err != nil || job < 1 || job > jobs {
			t.Fatalf("wake cause %q does not name a job", e.Cause)
		}
		wakes++
	}
	if wakes < 1000 {
		t.Fatalf("%d wakes, want at least 1000", wakes)
	}
	if n := s.GPIO.CauseCount(); n > 16 {
		t.Fatalf("%d wakes left %d distinct causes in the controller, want at most 16", wakes, n)
	}
}

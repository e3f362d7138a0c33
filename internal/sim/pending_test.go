package sim

import (
	"testing"
	"time"
)

// TestPendingAfterMassCancel is the O(1)-Pending regression test. It
// avoids timing assertions (flaky under CI load) and instead checks the
// two structural facts the optimization rests on: the live counter is
// exact after 10k cancellations, and threshold compaction has physically
// evicted the tombstones from the heap rather than leaving Pending to
// walk them.
func TestPendingAfterMassCancel(t *testing.T) {
	const n = 10_000
	e := NewEngine(1)
	events := make([]Timer, n)
	for i := range events {
		events[i] = e.Schedule(time.Duration(i)*time.Microsecond, func() {})
	}
	if got := e.Pending(); got != n {
		t.Fatalf("Pending() = %d after scheduling %d", got, n)
	}
	keep := e.Schedule(time.Hour, func() {})
	for _, ev := range events {
		ev.Cancel()
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after cancelling %d of %d, want 1", got, n, n+1)
	}
	// Compaction must have reclaimed the tombstones: at most half the
	// remaining heap (plus the compaction floor) may be dead weight.
	if len(e.queue) > 2*e.Pending()+compactFloor {
		t.Fatalf("heap holds %d entries for %d live events — compaction did not run", len(e.queue), e.Pending())
	}
	// Double-cancel stays a no-op on the counters.
	events[0].Cancel()
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after double-cancel, want 1", got)
	}
	// The survivor still fires at its scheduled time.
	if keep.ev.at != time.Hour {
		t.Fatalf("survivor scheduled at %v, want %v", keep.ev.at, time.Hour)
	}
	if !e.Step() {
		t.Fatal("Step() found no event, survivor lost in compaction")
	}
	if e.Now() != time.Hour {
		t.Fatalf("survivor fired at %v, want %v", e.Now(), time.Hour)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", got)
	}
}

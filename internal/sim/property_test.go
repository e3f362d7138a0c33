package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// This file is a model-based property test of the engine: random
// interleavings of Schedule / At / Cancel / Step / Run are replayed
// against a trivial reference model (a sorted list of live events), and
// the engine must fire exactly the model's events in exactly the model's
// (time, seq) order while Pending() always equals the model's live count.
// The engine's lazy cancellation and threshold compaction are invisible
// implementation details if and only if this test passes.

// modelEvent is one scheduled callback in the reference model.
type modelEvent struct {
	at        time.Duration
	seq       int
	cancelled bool
	fired     bool
	real      Timer
}

// firingOrder returns the ids of not-cancelled, not-yet-fired events at or
// before cutoff, in (time, seq) order — what a correct engine must fire.
func firingOrder(evs []*modelEvent, cutoff time.Duration) []int {
	var due []*modelEvent
	for _, ev := range evs {
		if !ev.cancelled && !ev.fired && ev.at <= cutoff {
			due = append(due, ev)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].at != due[j].at {
			return due[i].at < due[j].at
		}
		return due[i].seq < due[j].seq
	})
	ids := make([]int, len(due))
	for i, ev := range due {
		ids[i] = ev.seq
	}
	return ids
}

func livePending(evs []*modelEvent) int {
	n := 0
	for _, ev := range evs {
		if !ev.cancelled && !ev.fired {
			n++
		}
	}
	return n
}

func TestEnginePropertyRandomInterleavings(t *testing.T) {
	const (
		trials       = 60
		opsPerTrial  = 400
		maxDelay     = 1000 // virtual nanoseconds; collisions are the point
		cancelBatch  = 40   // large batches push past the compaction floor
		maxRunWindow = 300
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		e := NewEngine(int64(trial))
		var model []*modelEvent
		var fired []int

		schedule := func(at time.Duration, viaAt bool) {
			m := &modelEvent{at: at, seq: len(model)}
			id := m.seq
			cb := func() { fired = append(fired, id) }
			if viaAt {
				m.real = e.At(at, cb)
			} else {
				m.real = e.Schedule(at-e.Now(), cb)
			}
			model = append(model, m)
		}

		for op := 0; op < opsPerTrial; op++ {
			switch k := rng.Intn(10); {
			case k < 4: // Schedule relative to now
				schedule(e.Now()+time.Duration(rng.Intn(maxDelay)), false)
			case k < 6: // At an absolute time (>= now)
				schedule(e.Now()+time.Duration(rng.Intn(maxDelay)), true)
			case k < 8: // Cancel a random batch, including double-cancels
				if len(model) == 0 {
					continue
				}
				for i := 0; i < rng.Intn(cancelBatch); i++ {
					m := model[rng.Intn(len(model))]
					m.real.Cancel()
					if !m.fired {
						m.cancelled = true
					}
				}
			case k == 8: // Step once
				want := firingOrder(model, 1<<62)
				stepped := e.Step()
				if stepped != (len(want) > 0) {
					t.Fatalf("trial %d op %d: Step() = %v with %d live events", trial, op, stepped, len(want))
				}
				if stepped {
					m := model[want[0]]
					m.fired = true
					if len(fired) == 0 || fired[len(fired)-1] != m.seq {
						t.Fatalf("trial %d op %d: Step fired wrong event: fired tail %v, want %d", trial, op, tail(fired), m.seq)
					}
					if e.Now() != m.at {
						t.Fatalf("trial %d op %d: clock %v after firing event at %v", trial, op, e.Now(), m.at)
					}
				}
			case k == 9: // Run a bounded window
				cutoff := e.Now() + time.Duration(rng.Intn(maxRunWindow))
				want := firingOrder(model, cutoff)
				start := len(fired)
				n := e.Run(cutoff)
				if n != len(want) {
					t.Fatalf("trial %d op %d: Run(%v) executed %d events, model says %d", trial, op, cutoff, n, len(want))
				}
				got := fired[start:]
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d op %d: Run order diverged at %d: got %v, want %v", trial, op, i, got, want)
					}
					model[want[i]].fired = true
				}
				if e.Now() < cutoff {
					t.Fatalf("trial %d op %d: clock %v did not reach Run cutoff %v", trial, op, e.Now(), cutoff)
				}
			}
			if got, want := e.Pending(), livePending(model); got != want {
				t.Fatalf("trial %d op %d: Pending() = %d, model live = %d", trial, op, got, want)
			}
		}

		// Drain: everything still live must fire, in model order.
		want := firingOrder(model, 1<<62)
		start := len(fired)
		if n := e.RunAll(); n != len(want) {
			t.Fatalf("trial %d: RunAll executed %d, model says %d", trial, n, len(want))
		}
		got := fired[start:]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: drain order diverged at %d: got %v, want %v", trial, i, got, want)
			}
		}
		if e.Pending() != 0 {
			t.Fatalf("trial %d: Pending() = %d after drain", trial, e.Pending())
		}
	}
}

func tail(xs []int) []int {
	if len(xs) > 5 {
		return xs[len(xs)-5:]
	}
	return xs
}

// TestEnginePendingConsistentAcrossCompaction drives the engine straight
// through its compaction threshold and checks Pending() from the counters
// against a ground-truth walk of the heap before and after.
func TestEnginePendingConsistentAcrossCompaction(t *testing.T) {
	e := NewEngine(1)
	var events []Timer
	for i := 0; i < 500; i++ {
		events = append(events, e.Schedule(time.Duration(i)*time.Millisecond, func() {}))
	}
	rng := rand.New(rand.NewSource(7))
	liveWant := 500
	for _, i := range rng.Perm(500) {
		events[i].Cancel()
		liveWant--
		if got := e.Pending(); got != liveWant {
			t.Fatalf("after %d cancels: Pending() = %d, want %d", 500-liveWant, got, liveWant)
		}
		if got := walkPending(e); got != liveWant {
			t.Fatalf("after %d cancels: heap walk = %d live, want %d (compaction lost or kept the wrong events)", 500-liveWant, got, liveWant)
		}
	}
	if len(e.queue) != 0 && e.tombs*2 > len(e.queue) && e.tombs >= compactFloor {
		t.Fatalf("compaction never ran: %d tombstones in a %d-event heap", e.tombs, len(e.queue))
	}
}

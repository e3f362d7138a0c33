package sim

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// This file holds typed events to closures: one op stream — schedules at
// colliding times, cancels through live and stale Timers, steps and
// bounded runs — drives two engines, one scheduling a mix of typed and
// closure events and one closures only, and every firing, clock reading
// and Pending must agree between them. Events whose id is a multiple of
// three schedule a child when they fire, so handlers schedule too.

const rigKinds = 3

// kindsRig runs an op stream on one engine.
type kindsRig struct {
	e      *Engine
	mixed  bool // schedule typed events where the stream asks; else closures only
	kinds  [rigKinds]Kind
	timers []Timer // by event id, fired and cancelled ones too
	fired  []int32
	clock  []time.Duration
}

func newKindsRig(t *testing.T, mixed bool) *kindsRig {
	r := &kindsRig{e: NewEngine(1), mixed: mixed}
	for k := range r.kinds {
		r.kinds[k] = r.e.Register(func(id int32) {
			if int(id)%rigKinds != k {
				t.Fatalf("event %d ran kind %d's handler, want kind %d", id, k, int(id)%rigKinds)
			}
			r.fire(id)
		})
	}
	return r
}

// schedule queues the next event id after delay: typed when the rig is
// mixed and typed is set, on kind id mod rigKinds.
func (r *kindsRig) schedule(delay time.Duration, typed bool) {
	id := int32(len(r.timers))
	if r.mixed && typed {
		r.timers = append(r.timers, r.e.ScheduleKind(delay, r.kinds[int(id)%rigKinds], id))
		return
	}
	r.timers = append(r.timers, r.e.Schedule(delay, func() { r.fire(id) }))
}

func (r *kindsRig) fire(id int32) {
	r.fired = append(r.fired, id)
	r.clock = append(r.clock, r.e.Now())
	if id%3 == 0 {
		r.schedule(time.Duration(id%5), id%2 == 0)
	}
}

// walkPending counts e's live heap entries one by one.
func walkPending(e *Engine) int {
	n := 0
	for _, ev := range e.queue {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

// apply runs one two-byte op.
func (r *kindsRig) apply(op, arg byte) {
	switch op % 8 {
	case 0, 1, 2, 3:
		r.schedule(time.Duration(arg%16), op&0x10 != 0)
	case 4, 5:
		if len(r.timers) > 0 {
			r.timers[int(arg)%len(r.timers)].Cancel()
		}
	case 6:
		r.e.Step()
	case 7:
		r.e.Run(r.e.Now() + time.Duration(arg%32))
	}
}

// checkKindsSchedule replays ops on a mixed rig and a closures-only rig
// and fails on the first op after which they disagree.
func checkKindsSchedule(t *testing.T, ops []byte) {
	mixed, ref := newKindsRig(t, true), newKindsRig(t, false)
	step := func(i int) {
		if len(mixed.fired) != len(ref.fired) || mixed.e.Now() != ref.e.Now() {
			t.Fatalf("op %d: %d fired at clock %v, closures only %d at %v", i, len(mixed.fired), mixed.e.Now(), len(ref.fired), ref.e.Now())
		}
		for j := range ref.fired {
			if mixed.fired[j] != ref.fired[j] || mixed.clock[j] != ref.clock[j] {
				t.Fatalf("op %d: firing %d is event %d at %v, closures only %d at %v", i, j, mixed.fired[j], mixed.clock[j], ref.fired[j], ref.clock[j])
			}
		}
		for _, r := range []*kindsRig{mixed, ref} {
			if got, want := r.e.Pending(), walkPending(r.e); got != want {
				t.Fatalf("op %d: Pending() = %d, a walk of the queue counts %d", i, got, want)
			}
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		mixed.apply(ops[i], ops[i+1])
		ref.apply(ops[i], ops[i+1])
		step(i / 2)
	}
	mixed.e.RunAll()
	ref.e.RunAll()
	step(len(ops) / 2)
}

// TestEngineKindsMatchClosures runs seeded random op streams through
// checkKindsSchedule.
func TestEngineKindsMatchClosures(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		ops := make([]byte, 2*(50+rand.New(rand.NewSource(seed)).Intn(400)))
		rand.New(rand.NewSource(seed)).Read(ops)
		checkKindsSchedule(t, ops)
	}
}

// FuzzEngineKinds holds typed events to the closures-only engine on
// arbitrary op streams.
func FuzzEngineKinds(f *testing.F) {
	f.Add([]byte{0x10, 3, 0, 3, 0x11, 3, 4, 1, 6, 0, 7, 9})
	f.Add([]byte{0x10, 0, 0x10, 0, 6, 0, 4, 0, 0x10, 0, 4, 0, 7, 31})
	f.Fuzz(checkKindsSchedule)
}

// TestScheduleUnregisteredKindPanics: only a Kind this engine's Register
// returned may be scheduled, and a refused one queues nothing.
func TestScheduleUnregisteredKindPanics(t *testing.T) {
	e, other := NewEngine(1), NewEngine(1)
	e.Register(func(int32) {})
	other.Register(func(int32) {})
	foreign := other.Register(func(int32) {}) // past e's table
	for _, k := range []Kind{0, foreign, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ScheduleKind(kind %d) did not panic", k)
				}
			}()
			e.ScheduleKind(time.Second, k, 0)
		}()
		if e.Pending() != 0 {
			t.Fatalf("a refused kind %d left %d events queued", k, e.Pending())
		}
	}
}

// TestDispatchRunsNow: Dispatch runs the handler on its target at once,
// queueing nothing and taking no seq.
func TestDispatchRunsNow(t *testing.T) {
	e := NewEngine(1)
	var got []int32
	k := e.Register(func(target int32) { got = append(got, target) })
	e.Schedule(0, func() { got = append(got, -1) })
	e.Dispatch(k, 7)
	e.ScheduleKind(0, k, 8)
	e.RunAll()
	if len(got) != 3 || got[0] != 7 || got[1] != -1 || got[2] != 8 || e.seq != 2 {
		t.Fatalf("ran %v with seq %d, want [7 -1 8] and seq 2", got, e.seq)
	}
}

// TestEventNodeLayout: a typed event's kind and target share the node's
// last word with its cancelled flag, so a node is no bigger than a
// closure-only node was.
func TestEventNodeLayout(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 48 {
		t.Fatalf("event node is %d bytes, want ≤ 48", size)
	}
}

// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives every "sim mode" experiment in this repository: worker
// nodes, the rack server's CPU scheduler, and the power meter all advance on
// the engine's virtual clock. Events are ordered by (time, seq); ties are
// broken by scheduling order, which makes runs fully deterministic for a
// fixed seed.
//
// An event is typed or a closure. A typed event is a Kind — a
// func(target int32) handler registered once with Register — plus the
// target it runs on: the hot path (a board's boot done, exec done and
// keep-warm expiry) queues those, so an event node holds no pointer into
// the state it acts on. A closure event (Schedule, At) runs a func(); rare
// control events — deadlines, plane ticks, experiment hooks — keep them.
//
// The event queue is allocation-free in steady state: fired and cancelled
// event nodes are recycled through an engine-local free list (the engine is
// single-threaded by construction, so no locking is needed), and the heap
// is a hand-rolled typed binary heap over a flat node slice — no
// container/heap interface dispatch on the hot path. Callers hold events
// of both kinds through the generation-checked Timer handle, so a stale
// handle to a recycled node can never cancel the wrong event.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Engine is a discrete-event simulation engine with a virtual clock.
// The zero value is not usable; create one with NewEngine.
type Engine struct {
	now     time.Duration
	queue   []*event // typed binary min-heap by (at, seq)
	seq     uint64
	rng     *rand.Rand
	running bool
	// tombs counts cancelled events still physically in the heap awaiting
	// lazy removal; the rest of the heap is live.
	tombs int
	// free heads the recycled-node list. Nodes come off it when an event
	// is scheduled and go back when they fire, are popped as tombstones, or are evicted
	// by compaction, so a steady-state simulation stops allocating event
	// nodes entirely.
	free *event
	// handlers is the typed events' dispatch table: Kind k runs
	// handlers[k-1].
	handlers []func(target int32)
}

// NewEngine returns an engine whose clock starts at zero and whose random
// source is seeded with seed (so experiments are reproducible).
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time (elapsed since simulation start).
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Kind names a typed event's handler in its engine's dispatch table. The
// zero Kind names none.
type Kind uint16

// Register adds handler to the engine's dispatch table and returns the
// Kind that ScheduleKind queues it by. A user registers each handler once
// (a batch of boards registers its phases once, not once a board), and
// the handler finds what it acts on by the event's target.
func (e *Engine) Register(handler func(target int32)) Kind {
	if handler == nil {
		panic("sim: nil event handler")
	}
	if len(e.handlers) == math.MaxUint16 {
		panic("sim: event kind table full")
	}
	e.handlers = append(e.handlers, handler)
	return Kind(len(e.handlers))
}

// event is a scheduled event node: a closure (fn) or a typed event (kind
// and target). Nodes are owned by the engine and recycled through its free
// list; external code refers to them only via the generation-checked
// Timer handle. target, kind and cancelled share the last word, so a node
// stays 48 bytes.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
	// gen increments every time the node is recycled; a Timer whose
	// generation no longer matches refers to an earlier life of the node
	// and all its operations become no-ops.
	gen       uint64
	next      *event // free-list link (meaningful only while recycled)
	target    int32
	kind      Kind
	cancelled bool
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// valid and inert: Cancel is a no-op. Timers are values — copy them
// freely. A Timer outliving its event (already fired, cancelled, or the
// engine recycled the node for a new event) is harmless: the generation
// check turns every operation on it into a no-op.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint64
}

// Cancel prevents the event from running. Cancelling an event that
// already fired or was already cancelled is a no-op. A cancelled event
// stays in the heap as a tombstone until it is popped or the engine
// compacts; the engine's tombstone count is updated here.
func (t Timer) Cancel() {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.cancelled {
		return
	}
	ev.cancelled = true
	ev.fn = nil
	t.eng.tombs++
	t.eng.maybeCompact()
}

// getNode pops a recycled node or allocates a fresh one.
func (e *Engine) getNode() *event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		ev.next = nil
		return ev
	}
	return &event{}
}

// putNode recycles a node: its generation moves on (orphaning any
// outstanding Timer handles) and it joins the free list.
func (e *Engine) putNode(ev *event) {
	ev.gen++
	ev.fn, ev.kind, ev.target = nil, 0, 0
	ev.cancelled = false
	ev.next = e.free
	e.free = ev
}

// Schedule runs fn after delay of virtual time. A negative delay panics:
// the simulation cannot travel backwards.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t (>= Now).
func (e *Engine) At(t time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := e.push(t)
	ev.fn = fn
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// ScheduleKind runs kind's handler on target after delay of virtual time,
// in the same (time, seq) order as Schedule. A negative delay panics, and
// so does a Kind this engine's Register did not return.
func (e *Engine) ScheduleKind(delay time.Duration, kind Kind, target int32) Timer {
	if kind == 0 || int(kind) > len(e.handlers) {
		panic(fmt.Sprintf("sim: unregistered event kind %d", kind))
	}
	ev := e.push(e.now + delay)
	ev.kind, ev.target = kind, target
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// Dispatch runs kind's handler on target now, synchronously: a component
// that finishes a typed event's work itself (the rack server completing a
// VM's CPU task) hands it on without queueing another event.
func (e *Engine) Dispatch(kind Kind, target int32) { e.handlers[kind-1](target) }

// push queues a node at t (>= Now) with the next seq, for the caller to
// fill in.
func (e *Engine) push(t time.Duration) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	ev := e.getNode()
	ev.at = t
	ev.seq = e.seq
	e.seq++
	e.heapPush(ev)
	return ev
}

// fire runs a popped live event at its time. The node is recycled before
// the event runs: the event may schedule new ones, and the node is free to
// carry one of them (any Timer to this firing is already orphaned by the
// generation bump).
func (e *Engine) fire(ev *event) {
	e.now = ev.at
	fn, kind, target := ev.fn, ev.kind, ev.target
	e.putNode(ev)
	if fn != nil {
		fn()
		return
	}
	e.Dispatch(kind, target)
}

// popTombs recycles the cancelled events at the top of the heap and
// reports whether a live one is left there.
func (e *Engine) popTombs() bool {
	for len(e.queue) > 0 && e.queue[0].cancelled {
		e.tombs--
		e.putNode(e.heapPop())
	}
	return len(e.queue) > 0
}

// Step fires the next pending event, advancing the clock to its time.
// It reports whether an event was executed (cancelled events are skipped
// and do not count as execution, but Step keeps popping until it executes
// one event or the queue drains).
func (e *Engine) Step() bool {
	if !e.popTombs() {
		return false
	}
	e.fire(e.heapPop())
	return true
}

// Run executes events until the queue is empty or the clock would pass
// until. Events scheduled exactly at until still run. It returns the
// number of events executed.
func (e *Engine) Run(until time.Duration) int {
	if e.running {
		panic("sim: Run called re-entrantly from an event callback")
	}
	e.running = true
	defer func() { e.running = false }()
	n := 0
	for e.popTombs() && e.queue[0].at <= until {
		e.fire(e.heapPop())
		n++
	}
	// Even if no event lands exactly at until, the clock advances to it so
	// that meters integrating "up to now" cover the whole interval.
	if e.now < until {
		e.now = until
	}
	return n
}

// RunAll executes events until the queue drains and returns the count.
// Use with care: self-rescheduling processes make this run forever.
func (e *Engine) RunAll() int {
	n := 0
	for e.Step() {
		n++
	}
	return n
}

// compactFloor is the minimum number of tombstones before compaction is
// considered: below it, lazy pop-time removal is already cheap, and
// compacting tiny queues would thrash.
const compactFloor = 32

// maybeCompact rebuilds the heap without its cancelled events once they
// outnumber the live ones (tombstones exceed half the queue). Cancel-heavy
// workloads — keep-warm expiries, deadline timers that rarely fire — would
// otherwise grow the heap with corpses that every push/pop still pays
// log-time for. Amortized cost is O(1) per cancellation.
func (e *Engine) maybeCompact() {
	if e.tombs < compactFloor || e.tombs*2 <= len(e.queue) {
		return
	}
	kept := 0
	for _, ev := range e.queue {
		if ev.cancelled {
			e.putNode(ev)
			continue
		}
		e.queue[kept] = ev
		kept++
	}
	for i := kept; i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = e.queue[:kept]
	e.heapInit()
	e.tombs = 0
}

// eventLess orders the heap by (time, sequence number).
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush appends ev and restores the heap invariant.
func (e *Engine) heapPush(ev *event) {
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue) - 1)
}

// heapPop removes and returns the minimum (time, seq) event.
func (e *Engine) heapPop() *event {
	q := e.queue
	root := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = nil
	e.queue = q[:last]
	if last > 0 {
		e.siftDown(0)
	}
	return root
}

// heapInit re-establishes the heap invariant over the whole slice
// (after compaction).
func (e *Engine) heapInit() {
	for i := len(e.queue)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	ev := q[i]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && eventLess(q[right], q[left]) {
			least = right
		}
		if !eventLess(q[least], ev) {
			break
		}
		q[i] = q[least]
		i = least
	}
	q[i] = ev
}

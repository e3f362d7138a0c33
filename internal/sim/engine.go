// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives every "sim mode" experiment in this repository: worker
// nodes, the rack server's CPU scheduler, and the power meter all advance on
// the engine's virtual clock. Events are callbacks ordered by (time, seq);
// ties are broken by scheduling order, which makes runs fully deterministic
// for a fixed seed.
//
// The event queue is allocation-free in steady state: fired and cancelled
// event nodes are recycled through an engine-local free list (the engine is
// single-threaded by construction, so no locking is needed), and the heap
// is a hand-rolled typed binary heap over a flat node slice — no
// container/heap interface dispatch on the hot path. Callers hold events
// through the generation-checked Timer handle, so a stale handle to a
// recycled node can never cancel the wrong event.
package sim

import (
	"fmt"
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
	// live counts the not-yet-cancelled events still queued, so Pending is
	// O(1) instead of a heap walk; tombs counts cancelled events that are
	// still physically in the heap awaiting lazy removal.
	live  int
	tombs int
	// free heads the recycled-node list. Nodes come off it on Schedule/At
	// and go back when they fire, are popped as tombstones, or are evicted
	// by compaction, so a steady-state simulation stops allocating event
	// nodes entirely.
	free *event
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

// event is a scheduled callback node. Nodes are owned by the engine and
// recycled through its free list; external code refers to them only via
// the generation-checked Timer handle.
type event struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
	// gen increments every time the node is recycled; a Timer whose
	// generation no longer matches refers to an earlier life of the node
	// and all its operations become no-ops.
	gen  uint64
	next *event // free-list link (meaningful only while recycled)
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// valid and inert: Cancel is a no-op and Time reports zero. Timers are
// values — copy them freely. A Timer outliving its event (already fired,
// cancelled, or the engine recycled the node for a new event) is harmless:
// the generation check turns every operation on it into a no-op.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint64
}

// Cancel prevents the event's callback from running. Cancelling an event
// that already fired or was already cancelled is a no-op. A cancelled
// event stays in the heap as a tombstone until it is popped or the engine
// compacts; the engine's live/tombstone counters are updated here so that
// Pending never has to walk the heap.
func (t Timer) Cancel() {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.cancelled {
		return
	}
	ev.cancelled = true
	ev.fn = nil
	t.eng.live--
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
	ev.fn = nil
	ev.cancelled = false
	ev.next = e.free
	e.free = ev
}

// Schedule runs fn after delay of virtual time. A negative delay panics:
// the simulation cannot travel backwards.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t (>= Now).
func (e *Engine) At(t time.Duration, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := e.getNode()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.live++
	e.heapPush(ev)
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// Step fires the next pending event, advancing the clock to its time.
// It reports whether an event was executed (cancelled events are skipped
// and do not count as execution, but Step keeps popping until it executes
// one event or the queue drains).
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.heapPop()
		if ev.cancelled {
			e.tombs--
			e.putNode(ev)
			continue
		}
		e.live--
		e.now = ev.at
		fn := ev.fn
		// Recycle before running: fn may schedule new events, and the node
		// is free to carry one of them (any Timer to this firing is already
		// orphaned by the generation bump).
		e.putNode(ev)
		fn()
		return true
	}
	return false
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
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.cancelled {
			e.heapPop()
			e.tombs--
			e.putNode(next)
			continue
		}
		if next.at > until {
			break
		}
		e.heapPop()
		e.live--
		e.now = next.at
		fn := next.fn
		e.putNode(next)
		fn()
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

// Pending returns the number of not-yet-cancelled events in the queue.
// It is O(1): the engine keeps a live count instead of walking the heap.
func (e *Engine) Pending() int { return e.live }

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

package core

import (
	"container/heap"
	"fmt"
	"sort"
)

// Shard-death support: the drain-all variant of the steal protocol plus
// dynamic worker membership (see internal/shard's health checker, the
// only caller).
//
// When the plane declares a shard dead it (1) Seals the orchestrator so
// nothing new is accepted and nothing queued is dispatched onto dead
// hardware, (2) TakeAlls every queued and backoff-parked job — each
// carrying its identity and callback, as TakeQueued's do — and re-submits
// them on survivors, and (3) re-homes the dead shard's workers onto
// survivors with RemoveWorker/AddWorker. Attempts already executing when
// the shard died are left alone: an SBC that lost its control plane still
// finishes the job on its flash and the late done callback settles it
// normally, so every accepted invocation settles exactly once.

// Seal stops this orchestrator cold: new submissions are rejected
// (Submit and SubmitJob return 0), the arrival process stops, and
// queued jobs freeze in place — no further dispatch — so they can be
// recovered intact with TakeAll. In-flight attempts are unaffected and
// settle normally (a failure during the sealed window finalizes instead
// of retrying, as in Drain). Unlike Drain, Seal does not wait. It is
// one-way: a sealed orchestrator never accepts work again.
func (o *Orchestrator) Seal() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.draining.Store(true)
	o.sealed = true
	if o.arrivalCancel != nil {
		o.arrivalCancel()
		o.arrivalCancel = nil
	}
}

// TakeAll removes every recoverable job — all queued work including
// queue heads, plus backoff-parked retries whose timers are cancelled —
// and returns them, identity and callback intact, for re-submission
// elsewhere (SubmitJob on a survivor shard). Unlike TakeQueued it leaves
// nothing behind except attempts already executing. Order is
// deterministic: takeAllLocked's.
func (o *Orchestrator) TakeAll() []Job {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.takeAllLocked()
}

// takeAllLocked removes and returns every job not yet executing: the
// backlog, the waiting retries, each worker's queue in registration order,
// then the parked retries by id, their timers cancelled. Caller holds o.mu.
func (o *Orchestrator) takeAllLocked() []Job {
	out := o.backlog.qtake()
	o.backlogChangedLocked(-len(out))
	for _, r := range o.retries {
		out = append(out, r.job)
	}
	o.queued.Add(-int64(len(o.retries)))
	o.retries = nil
	for _, s := range o.slots {
		out = append(out, s.qtake()...)
		o.loadChangedLocked(s)
	}
	ids := make([]int64, 0, len(o.parked))
	for id := range o.parked {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		o.parked[id].cancel()
		out = append(out, o.parked[id].job)
		delete(o.parked, id)
	}
	o.addPendingLocked(-len(out))
	return out
}

// AddWorker registers a worker at runtime (the far end of a re-homing:
// a dead shard's board joining a survivor's partition). The worker lands
// at the end of the registration order with a fresh health record and
// its per-worker metric series (re)attached; under least-loaded it is the
// most recently freed board and takes the backlog's head. Not supported
// under a power manager, whose node set is fixed at construction.
func (o *Orchestrator) AddWorker(w Worker) error {
	if o.pm != nil {
		return fmt.Errorf("core: cannot add workers to a power-managed orchestrator")
	}
	o.mu.Lock()
	var b batch
	err := o.addWorkersLocked([]Worker{w})
	if err == nil {
		o.pullLocked(&b)
	}
	o.mu.Unlock()
	b.run()
	return err
}

// RemoveWorker detaches a worker from this orchestrator so it can be
// handed to another one. Its queued jobs are reassigned to the
// remaining local workers immediately; the worker itself is released
// through handoff — right away when idle, or as soon as its current
// attempt settles when busy (a worker wedged past its deadline is
// handed off when its late callback finally arrives). handoff runs
// outside the orchestrator lock; nil skips the callback. The detached
// worker takes no further assignments the moment this returns. The last
// worker can be removed only once the orchestrator is sealed (a dead
// shard gives up every board: a sealed orchestrator never dispatches
// again), and power-managed orchestrators (fixed node set) refuse.
func (o *Orchestrator) RemoveWorker(workerID string, handoff func(Worker)) error {
	o.mu.Lock()
	if o.pm != nil {
		o.mu.Unlock()
		return fmt.Errorf("core: cannot remove workers from a power-managed orchestrator")
	}
	s, ok := o.byID[workerID]
	if !ok {
		o.mu.Unlock()
		return fmt.Errorf("core: unknown worker %q", workerID)
	}
	if len(o.slots) == 1 && !o.sealed {
		o.mu.Unlock()
		return fmt.Errorf("core: cannot remove the last worker %q", workerID)
	}
	var b batch
	o.detachLocked(s)
	o.reassignQueueLocked(s, &b)
	o.pullLocked(&b) // the last eligible board gone, the ejected ones are pickable
	var release func(Worker)
	if s.busy {
		// The in-flight attempt owns the worker until its done callback;
		// completed() fires the stashed handoff then.
		s.pendingHandoff = handoff
	} else {
		release = handoff
	}
	o.mu.Unlock()
	b.run()
	if release != nil {
		release(s.w)
	}
	return nil
}

// detachLocked splices a slot out of every assignment structure: its
// free stack, the eligible/parole split, the id index and the slot list.
// The slots after it move down one rank, which keeps every rank
// comparison in registration order. The slot object itself stays alive
// for any in-flight attempt that still points at it. Caller holds o.mu.
func (o *Orchestrator) detachLocked(s *workerSlot) {
	s.detached = true
	o.loadChangedLocked(s)
	o.removeEligibleLocked(s)
	if s.parolePos >= 0 {
		heap.Remove(&o.parole, s.parolePos)
	}
	delete(o.byID, s.id)
	o.slots = append(o.slots[:s.rank], o.slots[s.rank+1:]...)
	for r := s.rank; r < len(o.slots); r++ {
		o.slots[r].rank = r
	}
}

// takeHandoffLocked claims a detached slot's deferred handoff, if its
// current attempt has settled. Caller holds o.mu and calls the returned
// function (with s.w) after releasing it.
func (o *Orchestrator) takeHandoffLocked(s *workerSlot) func(Worker) {
	if s.pendingHandoff == nil || s.busy {
		return nil
	}
	fn := s.pendingHandoff
	s.pendingHandoff = nil
	return fn
}

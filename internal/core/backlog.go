package core

// Least-loaded binds a job to a board only when the board is free. The
// paper's OP runs each board single-tenant, so the least-loaded board is a
// free one: a job that finds no free board it may run on waits on the
// orchestrator's backlog, one FIFO for the fleet, and the first such board
// to come free takes the backlog's head (pullLocked). Free boards are kept
// on one stack per breaker class, and a pick takes the most recently freed
// board of the class assignableLocked picks from — under a power manager,
// the one most likely still powered. The other policies keep neither: they
// bind a job to a board's own queue when it is submitted.

// jobQueue is a FIFO of waiting jobs: a worker's own queue, or the
// backlog. queue[qhead:] holds the jobs. Popping advances qhead instead of
// reslicing (`queue = queue[1:]`), which would strand the backing array's
// head and force append to reallocate on every push/pop cycle; once the
// queue drains both reset and the array is reused in place.
type jobQueue struct {
	queue []Job
	qhead int
}

// qlen returns the number of jobs waiting in the queue.
func (q *jobQueue) qlen() int { return len(q.queue) - q.qhead }

// qpush appends a job to the queue.
func (q *jobQueue) qpush(j Job) { q.queue = append(q.queue, j) }

// qhead0 returns the next job without removing it. Call only when qlen > 0.
func (q *jobQueue) qhead0() Job { return q.queue[q.qhead] }

// qpop removes and returns the next job. The vacated element is zeroed so
// the queue does not pin the job's Args past its dispatch.
func (q *jobQueue) qpop() Job {
	j := q.queue[q.qhead]
	q.queue[q.qhead] = Job{}
	q.qhead++
	if q.qhead == len(q.queue) {
		q.queue = q.queue[:0]
		q.qhead = 0
	}
	return j
}

// qpoptail removes and returns the newest queued job. Call only when
// qlen >= 1.
func (q *jobQueue) qpoptail() Job {
	last := len(q.queue) - 1
	j := q.queue[last]
	q.queue[last] = Job{}
	q.queue = q.queue[:last]
	if q.qhead == len(q.queue) {
		q.queue = q.queue[:0]
		q.qhead = 0
	}
	return j
}

// qtake removes and returns every waiting job (nil when empty), leaving
// the backing array in place for reuse.
func (q *jobQueue) qtake() []Job {
	if q.qlen() == 0 {
		return nil
	}
	out := make([]Job, q.qlen())
	copy(out, q.queue[q.qhead:])
	for i := q.qhead; i < len(q.queue); i++ {
		q.queue[i] = Job{}
	}
	q.queue = q.queue[:0]
	q.qhead = 0
	return out
}

// batch collects the attempts one hold of o.mu dispatched, to start once
// it is released; the first needs no allocation.
type batch struct {
	first *inflight
	more  []*inflight
}

// add appends a dispatched attempt; nil is skipped.
func (b *batch) add(fl *inflight) {
	if b.first == nil {
		b.first = fl
	} else if fl != nil {
		b.more = append(b.more, fl)
	}
}

// run starts every collected attempt, in the order they were added. Call
// only after o.mu is released.
func (b *batch) run() {
	if b.first != nil {
		b.first.run()
	}
	for _, fl := range b.more {
		fl.run()
	}
}

// load is the slot's queued-plus-running job count (energy-aware's order).
func (s *workerSlot) load() int {
	n := s.qlen()
	if s.busy {
		n++
	}
	return n
}

// loadChangedLocked is the one hook every change to a slot's load passes:
// each queue mutation (qpush, qpop, qtake, qpoptail) and each flip of the
// busy flag is followed by a call. It republishes the queue-depth gauge,
// keeps the orchestrator's queued total, and, under least-loaded, files
// the slot on or off its free stack. Caller holds o.mu.
func (o *Orchestrator) loadChangedLocked(s *workerSlot) {
	if q := int32(s.qlen()); q != s.queued {
		o.queued.Add(int64(q - s.queued))
		s.queued = q
		s.m.queueDepth.Set(float64(q))
	}
	if o.policy == AssignLeastLoaded {
		o.refreeLocked(s)
	}
}

// class is the slot's breaker class: 0 while eligible, 1 while ejected.
func (s *workerSlot) class() int {
	if s.eligPos >= 0 {
		return 0
	}
	return 1
}

// refreeLocked puts s on top of its class's free stack if it is free —
// attached, not running, its own queue empty — and takes it off if it is
// not. Caller holds o.mu.
func (o *Orchestrator) refreeLocked(s *workerSlot) {
	if free := !s.busy && !s.detached && s.qlen() == 0; !free {
		o.unfreeLocked(s)
	} else if s.freePos < 0 {
		st := &o.free[s.class()]
		s.freePos = int32(len(*st))
		*st = append(*st, s)
	}
}

// unfreeLocked takes s off its free stack, if it is on one, keeping the
// others in order. A board leaves from the top or next to it except when a
// breaker change, SubmitTo or RemoveWorker reaches one further down.
// Caller holds o.mu.
func (o *Orchestrator) unfreeLocked(s *workerSlot) {
	i := int(s.freePos)
	if i < 0 {
		return
	}
	st := o.free[s.class()]
	copy(st[i:], st[i+1:])
	st[len(st)-1] = nil
	st = st[:len(st)-1]
	for _, t := range st[i:] {
		t.freePos--
	}
	o.free[s.class()] = st
	s.freePos = -1
}

// freeForLocked returns the board a job starts on now, or nil: the most
// recently freed board of the class assignableLocked picks from, passing
// over off (the board a retry failed on) unless it is the only attached
// board; once off is the only eligible board, any other may run the retry,
// as under random's retry pick. A sealed orchestrator starts nothing.
func (o *Orchestrator) freeForLocked(off *workerSlot) *workerSlot {
	if o.sealed {
		return nil
	}
	if o.attempt.BreakerThreshold > 0 {
		o.promoteParoledLocked()
	}
	alone := len(o.slots) == 1
	c := 0
	if len(o.eligible) == 0 || (!alone && len(o.eligible) == 1 && o.eligible[0] == off) {
		c = 1
	}
	st := o.free[c]
	for i := len(st) - 1; i >= 0 && i >= len(st)-2; i-- {
		if st[i] != off || alone {
			return st[i]
		}
	}
	return nil
}

// waitingRetry is a retry no board but off, the one it failed on, was
// free for. It waits beside the backlog, not blocking the jobs behind it.
type waitingRetry struct {
	job Job
	off *workerSlot
}

// placeBacklogLocked is least-loaded's placement, and that of an
// orchestrator left with no board. A job starts at once on a free board
// (freeForLocked) when the backlog is empty, as does a retry or a job
// moved off a wedged or detached board (off set) when it is not; else a
// retry waits in o.retries, any other job on the backlog. Caller holds o.mu.
func (o *Orchestrator) placeBacklogLocked(job Job, off *workerSlot, b *batch) {
	if s := o.freeForLocked(off); s != nil && (off != nil || o.backlog.qlen() == 0) {
		b.add(o.startFreeLocked(s, job))
	} else if off != nil && job.Attempt > 0 {
		o.retries = append(o.retries, waitingRetry{job: job, off: off})
		o.queued.Add(1)
	} else {
		o.backlog.qpush(job)
		o.backlogChangedLocked(1)
	}
	o.pullLocked(b)
}

// pullLocked starts each waiting retry that a free board other than its
// off may run, oldest first, then the backlog's head on a free board, and
// the next head, until none can. It runs wherever a board may have come
// free or become pickable: an attempt settled, or a board was added,
// paroled or detached, or its breaker tripped. Caller holds o.mu.
func (o *Orchestrator) pullLocked(b *batch) {
	kept := o.retries[:0]
	for _, r := range o.retries {
		if s := o.freeForLocked(r.off); s != nil {
			o.queued.Add(-1)
			b.add(o.startFreeLocked(s, r.job))
		} else {
			kept = append(kept, r)
		}
	}
	clear(o.retries[len(kept):])
	o.retries = kept
	for o.backlog.qlen() > 0 {
		s := o.freeForLocked(nil)
		if s == nil {
			return
		}
		b.add(o.startFreeLocked(s, o.backlog.qpop()))
		o.backlogChangedLocked(-1)
	}
}

// backlogChangedLocked keeps Queued() current after the backlog moved by
// delta, and releases the backlog's array once it drains: it grew to hold
// a burst, which an empty backlog has no use for. Caller holds o.mu.
func (o *Orchestrator) backlogChangedLocked(delta int) {
	o.queued.Add(int64(delta))
	if o.backlog.qlen() == 0 {
		o.backlog.queue = nil
	}
}

// startFreeLocked starts job on the free board s, under a power manager
// through s's queue, so dispatch wakes s or marks it in use.
func (o *Orchestrator) startFreeLocked(s *workerSlot, job Job) *inflight {
	if o.pm != nil {
		o.pushJobLocked(s, job)
		return o.maybeDispatchLocked(s)
	}
	return o.startLocked(s, job)
}

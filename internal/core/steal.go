package core

import (
	"fmt"
	"sort"
)

// Cross-shard work stealing (the victim and thief halves of the shard
// plane's steal protocol; see internal/shard).
//
// TakeQueued is the victim side: it removes queued-but-not-started jobs
// from this orchestrator — newest first, deepest queues first, exactly
// how classic work stealing takes from the tail — together with their
// completion callbacks, and forgets them entirely (pending count, queue
// gauges, callbacks). SubmitJob is the thief side: it enqueues a job
// built elsewhere while preserving its identity — id, submission time
// and attempt count — so latency accounting and async pickup survive the
// migration. Job ids must be cluster-unique across shards for this to be
// safe; Config.JobIDBase gives each shard a disjoint id space.

// Stolen is one job removed by TakeQueued: the job itself plus the
// completion callback registered at submit (nil when the submitter did
// not ask for one). The thief shard re-registers the callback under the
// job's unchanged id.
type Stolen struct {
	// Job is the migrating invocation, identity intact.
	Job Job
	// Callback is the job's completion callback (nil if none).
	Callback func(Result)
}

// TakeQueued removes up to max queued (not yet running) jobs and returns
// them with their callbacks. Jobs come off the tails of the deepest
// queues first (ties by registration order), and every queue keeps its
// head job: the next dispatch each worker would make stays local, so
// stealing never adds latency to work that was about to run. Parked
// retries are not stealable (their backoff timer owns them). Returns nil
// when there is nothing safely stealable.
func (o *Orchestrator) TakeQueued(max int) []Stolen {
	if max <= 0 {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	// One sorted pass (deepest queue first, ties by registration order)
	// instead of a rescan per stolen job: a rack-sized victim shard hands
	// over thousands of jobs per aggregator tick.
	victims := make([]*workerSlot, 0, len(o.slots))
	for _, s := range o.slots {
		if s.qlen() >= 2 {
			victims = append(victims, s)
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].qlen() != victims[j].qlen() {
			return victims[i].qlen() > victims[j].qlen()
		}
		return victims[i].rank < victims[j].rank
	})
	var out []Stolen
	for _, victim := range victims {
		for len(out) < max && victim.qlen() >= 2 {
			job := victim.qpoptail()
			cb := o.callbacks[job.ID]
			delete(o.callbacks, job.ID)
			delete(o.retryOff, job.ID)
			out = append(out, Stolen{Job: job, Callback: cb})
		}
		o.loadChangedLocked(victim)
		if len(out) == max {
			break
		}
	}
	o.addPendingLocked(-len(out))
	return out
}

// SubmitJob enqueues a job that already exists elsewhere in the cluster
// (a steal, or any cross-shard handoff), preserving its id, submission
// time, attempt count and timeout. The assignment policy
// picks the local worker. Returns the job's (unchanged) id, or 0 without
// enqueueing when this orchestrator is draining — the caller still holds
// the job and must re-route it.
func (o *Orchestrator) SubmitJob(job Job, cb func(Result)) (int64, error) {
	if job.ID == 0 {
		return 0, fmt.Errorf("core: SubmitJob needs a job with an assigned id")
	}
	o.mu.Lock()
	if o.draining.Load() {
		o.mu.Unlock()
		return 0, nil
	}
	s := o.pickWorkerLocked(job.Function)
	o.pushJobLocked(s, job)
	if cb != nil {
		o.callbacks[job.ID] = cb
	}
	o.addPendingLocked(1)
	run := o.maybeDispatchLocked(s)
	o.mu.Unlock()
	if run != nil {
		run.run()
	}
	return job.ID, nil
}

// qpoptail removes and returns the newest queued job. Call only when
// qlen >= 1.
func (s *workerSlot) qpoptail() Job {
	last := len(s.queue) - 1
	j := s.queue[last]
	s.queue[last] = Job{}
	s.queue = s.queue[:last]
	if s.qhead == len(s.queue) {
		s.queue = s.queue[:0]
		s.qhead = 0
	}
	return j
}

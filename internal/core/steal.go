package core

import (
	"fmt"
	"sort"
)

// Cross-shard work stealing (the victim and thief halves of the shard
// plane's steal protocol; see internal/shard).
//
// The job is the whole steal transport: it carries its id, submission
// time, attempt count and completion callback. TakeQueued is the victim
// side: it removes queued-but-not-started jobs from this orchestrator —
// newest first, deepest queues first, exactly how classic work stealing
// takes from the tail — and forgets them (pending count, queue gauges).
// SubmitJob is the thief side: it places such a job here, identity and
// callback intact, so latency accounting and async pickup survive the
// migration; its attempts run under this orchestrator's AttemptPolicy.
// Job ids must be cluster-unique across shards for this to be safe;
// Config.JobIDBase gives each shard a disjoint id space.

// TakeQueued removes up to max queued (not yet running) jobs and returns
// them, each with its callback. Jobs come off the backlog's tail first,
// then off the tails of the deepest worker queues (ties by registration
// order). The backlog and every worker queue keep their head, the job
// their next dispatch starts. Under least-loaded that keeps one job per
// orchestrator, not one per busy board: the rest of the backlog waits for
// boards still running, which a thief with a free board beats. Waiting
// and parked retries are not stealable (the next other board to free runs
// a waiting one; a backoff timer owns a parked one). Returns nil when
// there is nothing safely stealable.
func (o *Orchestrator) TakeQueued(max int) []Job {
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
	var out []Job
	steal := func(q *jobQueue) {
		for len(out) < max && q.qlen() >= 2 {
			out = append(out, q.qpoptail())
		}
	}
	steal(&o.backlog)
	o.backlogChangedLocked(-len(out))
	for _, victim := range victims {
		steal(&victim.jobQueue)
		o.loadChangedLocked(victim)
		if len(out) == max {
			break
		}
	}
	o.addPendingLocked(-len(out))
	return out
}

// SubmitJob enqueues a job taken off another orchestrator (TakeQueued,
// TakeAll), preserving its id, submission time, attempt count and
// completion callback; its attempts run under this orchestrator's
// JobTimeout. The assignment policy places it, as it places a new job.
// Returns the job's (unchanged) id, or 0 without enqueueing when this
// orchestrator is draining — the caller still holds the job and must
// re-route it, or Fail it.
func (o *Orchestrator) SubmitJob(job Job) (int64, error) {
	if job.ID == 0 {
		return 0, fmt.Errorf("core: SubmitJob needs a job with an assigned id")
	}
	o.mu.Lock()
	if o.draining.Load() {
		o.mu.Unlock()
		return 0, nil
	}
	o.addPendingLocked(1)
	var b batch
	o.placeLocked(job, nil, &b)
	o.mu.Unlock()
	b.run()
	return job.ID, nil
}

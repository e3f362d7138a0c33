package shard

import "microfaas/internal/core"

// The capacity aggregator: a periodic tick that snapshots every shard's
// queue depth and (a) steals queued work off backlogged shards onto the
// least-loaded ones, (b) shifts ring weight away from shards whose
// queues run deeper than the cluster mean. The tick self-schedules only
// while work is in flight — an idle cluster runs no events, so a
// discrete-event simulation over a Plane still terminates.
//
// Determinism: the tick fires at clock-scheduled instants, visits
// shards in index order, and every decision (victim choice, steal
// count, destination choice, weight delta) is computed from snapshot
// integers — no randomness, no map iteration — so seeded sims replay
// byte-identically.

// armTick schedules the next aggregator tick unless one is pending, the
// aggregator is disabled (no steal, no rebalance, no membership, and no
// tick hook), or the plane is closed.
func (p *Plane) armTick() {
	if !p.cfg.Steal.Enabled && !p.cfg.Rebalance.Enabled && !p.cfg.Membership.Enabled && !p.hookSet.Load() {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.tickArmed {
		return
	}
	p.tickArmed = true
	p.cancelTick = p.runtime.After(p.cfg.Steal.Interval, p.tick)
}

// tick runs one aggregator pass: heartbeat/membership first (so a shard
// declared dead this pass is off the ring before the steal half reads
// queue depths), then snapshot, steal, rebalance, re-arm.
func (p *Plane) tick() {
	p.tickMu.Lock()
	defer p.tickMu.Unlock()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.tickArmed = false
	p.cancelTick = nil
	hook := p.tickHook
	p.mu.Unlock()

	if p.cfg.Membership.Enabled {
		p.healthTick()
	}

	queued, pending := p.tickQueued, p.tickPending
	totalQ, totalP := 0, 0
	for i, o := range p.shards {
		queued[i] = o.Queued()
		pending[i] = o.Pending()
		totalQ += queued[i]
		totalP += pending[i]
		p.queueDepth[i].Set(float64(queued[i]))
	}
	if p.cfg.Steal.Enabled {
		p.stealTick(queued, pending, totalQ)
	}
	if p.cfg.Rebalance.Enabled {
		p.rebalanceTick(queued, totalQ)
	}
	// Scrape hook last, so the queue-depth gauges and steal counters this
	// tick just updated are sampled fresh.
	if hook != nil {
		hook(p.runtime.Now())
	}
	// Re-arm only while jobs are in flight (the next Submit re-arms an
	// idle plane — without this guard RunAll on a sim engine would never
	// run out of events) or while the membership machine is mid-
	// transition, which resolves in a bounded number of ticks.
	rearm := totalP > 0
	if !rearm && p.cfg.Membership.Enabled {
		p.mu.Lock()
		rearm = p.membershipTransitionalLocked()
		p.mu.Unlock()
	}
	if rearm {
		p.armTick()
	}
}

// stealTick raids every shard whose queue exceeds Threshold × the mean
// depth, moving the newest half of its excess onto the least-loaded
// shards. Queue heads are never stolen (core.TakeQueued keeps them), so
// relief never delays work that was about to dispatch locally.
func (p *Plane) stealTick(queued, pending []int, totalQ int) {
	n := len(p.shards)
	if n < 2 || totalQ == 0 {
		return
	}
	mean := float64(totalQ) / float64(n)
	trigger := DefaultStealThreshold * mean
	if trigger < 2 {
		// Below two queued jobs there is nothing stealable anyway (heads
		// stay local); don't thrash on near-empty clusters.
		trigger = 2
	}
	budget := p.cfg.Steal.MaxPerTick
	for v := 0; v < n && budget > 0; v++ {
		if float64(queued[v]) <= trigger || p.shards[v].Draining() {
			continue
		}
		take := (queued[v] - int(mean)) / 2
		if take > budget {
			take = budget
		}
		if take <= 0 {
			continue
		}
		stolen := p.shards[v].TakeQueued(take)
		if len(stolen) == 0 {
			continue
		}
		budget -= len(stolen)
		queued[v] -= len(stolen)
		pending[v] -= len(stolen)
		p.scatter(stolen, v, pending, queued)
	}
}

// scatter places jobs taken off shard from, one at a time, on the shard
// with the least pending work other than from (from itself when no other
// accepts), counting each placement in the pending snapshot and, when it
// is non-nil, the queued one. The steal tick and a shard's death both
// move jobs through it.
func (p *Plane) scatter(jobs []core.Job, from int, pending, queued []int) {
	p.stolenOut[from].Add(float64(len(jobs)))
	moved := 0
	for _, job := range jobs {
		d := p.leastLoaded(pending, from)
		if d < 0 {
			d = from // nowhere better; send it home
		}
		if d = p.place(job, d, from); d < 0 {
			continue
		}
		pending[d]++
		if queued != nil {
			queued[d]++
		}
		if d != from {
			p.stolenIn[d].Add(1)
			moved++
		}
	}
	if moved > 0 {
		p.mu.Lock()
		p.stolenTotal += int64(moved)
		p.mu.Unlock()
	}
}

// place submits a job taken off shard from to shard d, falling back to
// from and then to any accepting shard if those refuse (they are
// draining). Returns the index of the shard that took the job, or -1 when
// every shard refused and the job was failed through its callback, so
// the submitter is not left waiting forever.
func (p *Plane) place(job core.Job, d, from int) int {
	if id, err := p.shards[d].SubmitJob(job); err == nil && id != 0 {
		return d
	}
	if id, err := p.shards[from].SubmitJob(job); err == nil && id != 0 {
		return from
	}
	for i := range p.shards {
		if i == d || i == from {
			continue
		}
		if id, err := p.shards[i].SubmitJob(job); err == nil && id != 0 {
			return i
		}
	}
	job.Fail("shard: cluster draining, job not rescheduled")
	return -1
}

// pendingExcept snapshots every shard's pending count but skip's, which
// reads 0: the shard a death or a failover moves work off.
func (p *Plane) pendingExcept(skip int) []int {
	pending := make([]int, len(p.shards))
	for i, s := range p.shards {
		if i != skip {
			pending[i] = s.Pending()
		}
	}
	return pending
}

// leastLoaded returns the non-draining shard with the smallest pending
// count, excluding skip; ties break to the lower index. Returns -1 when
// no shard qualifies.
func (p *Plane) leastLoaded(pending []int, skip int) int {
	best := -1
	for i := range p.shards {
		if i == skip || p.shards[i].Draining() {
			continue
		}
		if best == -1 || pending[i] < pending[best] {
			best = i
		}
	}
	return best
}

// rebalanceTick nudges ring weights toward equal queue depth: a shard
// with a deeper-than-mean queue sheds ring share, a shallower one gains
// it, damped by Gain. The ring only rebuilds when some weight moved
// more than 5% — point placement is weight-independent (see pointHash),
// so a rebuild moves only the keys the weight change implies.
func (p *Plane) rebalanceTick(queued []int, totalQ int) {
	n := len(p.shards)
	if n < 2 || totalQ == 0 {
		return
	}
	mean := float64(totalQ) / float64(n)
	p.mu.Lock()
	defer p.mu.Unlock()
	weights := p.tickWeights
	material := false
	for i := range weights {
		w := p.ring.Weight(i)
		target := w * (mean + 1) / (float64(queued[i]) + 1)
		nw := w + DefaultRebalanceGain*(target-w)
		weights[i] = nw
		if diff := nw - w; diff > 0.05*w || diff < -0.05*w {
			material = true
		}
	}
	if !material {
		return
	}
	if err := p.ring.SetWeights(weights); err != nil {
		return
	}
	for i := range weights {
		p.weight[i].Set(p.ring.Weight(i))
	}
}

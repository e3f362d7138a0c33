package shard

// The health checker: the membership half of the aggregator tick (see
// membership.go for the state machine it implements). Like the steal
// and rebalance halves it visits shards in index order, draws no
// randomness, and runs on the cluster clock, so churn under a seeded
// simulation replays byte-identically. Lock discipline: member records
// and the ring mutate under p.mu; orchestrator calls that move work (Seal,
// TakeAll, SubmitJob) happen with p.mu released. Only the
// read-only Pending, a lock-free load, is called under p.mu (by route).

// healthTick probes every shard once and advances the membership state
// machine. Deaths decided this pass execute after the scan, still within
// the same tick.
func (p *Plane) healthTick() {
	cfg := &p.cfg.Membership
	now := p.runtime.Now()
	// A tick can decide several deaths; they execute in index order after
	// the scan, outside p.mu.
	var deaths []int
	p.mu.Lock()
	for i := range p.members {
		rec := &p.members[i]
		if cfg.Probe == nil || cfg.Probe(i) {
			rec.missed = 0
			switch rec.state {
			case ShardUp:
				rec.leaseUntil = now + p.leaseTTL
			case ShardSuspect:
				rec.state = ShardUp
				rec.epoch++
				rec.leaseUntil = now + p.leaseTTL
			}
			continue
		}
		rec.missed++
		expired := now >= rec.leaseUntil
		switch rec.state {
		case ShardUp:
			if (rec.missed >= DefaultDeadAfter || expired) && p.ring.Members() > 1 {
				deaths = append(deaths, i)
			} else if rec.missed >= DefaultSuspectAfter {
				rec.state = ShardSuspect
				rec.epoch++
			}
		case ShardSuspect:
			if (rec.missed >= DefaultDeadAfter || expired) && p.ring.Members() > 1 {
				deaths = append(deaths, i)
			}
		}
	}
	p.mu.Unlock()
	for _, i := range deaths {
		p.killShard(i)
	}
}

// killShard executes a death transition: the shard leaves the ring, its
// orchestrator is sealed, and everything recoverable — queued jobs and
// backoff-parked retries, identity intact — drains into the live shards
// through the steal transport. Attempts already executing on the dead
// shard's boards run to completion and settle through their late
// callbacks, so nothing is lost and nothing runs twice. A dead shard
// stays dead.
func (p *Plane) killShard(i int) {
	p.mu.Lock()
	rec := &p.members[i]
	if rec.state == ShardDead || p.ring.Members() <= 1 {
		p.mu.Unlock()
		return
	}
	if err := p.ring.Remove(i); err != nil {
		p.mu.Unlock()
		return
	}
	rec.state = ShardDead
	rec.epoch++
	p.mu.Unlock()

	o := p.shards[i]
	o.Seal()
	if jobs := o.TakeAll(); len(jobs) > 0 {
		p.scatter(jobs, i, p.pendingExcept(i), nil)
		p.armTick()
	}
	if cb := p.cfg.Membership.OnDeath; cb != nil {
		cb(i)
	}
}

// membershipTransitionalLocked reports whether the membership machine
// still has progress to make — a shard partway to suspicion or death.
// While true the aggregator keeps ticking even with no work pending;
// every such state resolves in a bounded number of ticks, so an idle
// simulation still terminates. Caller holds p.mu.
func (p *Plane) membershipTransitionalLocked() bool {
	if !p.cfg.Membership.Enabled {
		return false
	}
	for i := range p.members {
		rec := &p.members[i]
		switch rec.state {
		case ShardUp:
			if rec.missed > 0 {
				return true
			}
		case ShardSuspect:
			return true
		}
	}
	return false
}

// Kick arms the capacity aggregator if it is idle. Submissions arm it
// on the hot path; call Kick after an out-of-band event that needs the
// tick loop running — e.g. a killed host that should start missing
// heartbeats while the cluster is otherwise quiet.
func (p *Plane) Kick() { p.armTick() }

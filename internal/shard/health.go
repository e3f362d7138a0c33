package shard

import "fmt"

// The health checker: the membership half of the aggregator tick (see
// membership.go for the state machine it implements). Like the steal
// and rebalance halves it visits shards in index order, draws no
// randomness, and runs on the cluster clock, so churn under a seeded
// simulation replays byte-identically. Lock discipline: member records
// and the ring mutate under p.mu; orchestrator calls that move work (Seal,
// TakeAll, SubmitJob, Reopen) happen with p.mu released. Only the
// read-only Pending, a lock-free load, is called under p.mu (by route).

// healthTick probes every shard once and advances the membership state
// machine. Deaths and rejoins decided this pass execute after the scan,
// still within the same tick.
func (p *Plane) healthTick() {
	cfg := &p.cfg.Membership
	now := p.runtime.Now()
	// A tick can decide several transitions; they execute in index order
	// after the scan, outside p.mu.
	var deaths, rejoins []int
	p.mu.Lock()
	for i := range p.members {
		rec := &p.members[i]
		alive := cfg.Probe == nil || cfg.Probe(i)
		rec.lastAlive = alive
		if rec.admin {
			continue // administratively drained: frozen until JoinShard
		}
		if alive {
			rec.missed = 0
			switch rec.state {
			case ShardUp:
				rec.leaseUntil = now + p.leaseTTL
			case ShardSuspect:
				rec.state = ShardUp
				rec.epoch++
				rec.leaseUntil = now + p.leaseTTL
			case ShardDead:
				rec.streak++
				if rec.streak >= DefaultRejoinAfter {
					rejoins = append(rejoins, i)
				}
			}
			continue
		}
		rec.streak = 0
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
		p.killShard(i, false)
	}
	for _, i := range rejoins {
		p.rejoinShard(i)
	}
}

// killShard executes a death transition: the shard leaves the ring, its
// orchestrator is sealed, and everything recoverable — queued jobs and
// backoff-parked retries, identity intact — drains into the live shards
// through the steal transport. Attempts already executing on the dead
// shard's boards run to completion and settle through their late
// callbacks, so nothing is lost and nothing runs twice. admin marks an
// administrative drain (DrainShard): no OnDeath hook, no auto-rejoin.
func (p *Plane) killShard(i int, admin bool) {
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
	rec.missed, rec.streak = 0, 0
	rec.admin = admin
	rec.epoch++
	p.mu.Unlock()

	o := p.shards[i]
	o.Seal()
	stolen := o.TakeAll()
	if len(stolen) > 0 {
		pending := make([]int, len(p.shards))
		for j, s := range p.shards {
			if j != i {
				pending[j] = s.Pending()
			}
		}
		p.stolenOut[i].Add(float64(len(stolen)))
		moved := 0
		for _, st := range stolen {
			d := p.leastLoaded(pending, i)
			if d < 0 {
				d = i // place falls back through every shard and settles if none accept
			}
			d = p.place(st, d, i)
			if d != i {
				pending[d]++
				p.stolenIn[d].Add(1)
				moved++
			}
		}
		p.mu.Lock()
		p.stolenTotal += int64(moved)
		p.mu.Unlock()
		p.armTick()
	}
	if cb := p.cfg.Membership.OnDeath; cb != nil && !admin {
		cb(i)
	}
}

// rejoinShard executes a rejoin transition: the orchestrator reopens
// and the shard returns to the ring at weight 1 (it re-earns ring share
// from the rebalancer like any other shard).
func (p *Plane) rejoinShard(i int) {
	p.mu.Lock()
	rec := &p.members[i]
	if rec.state != ShardDead {
		p.mu.Unlock()
		return
	}
	if err := p.ring.Add(i); err != nil {
		p.mu.Unlock()
		return
	}
	rec.state = ShardUp
	rec.missed, rec.streak = 0, 0
	rec.admin = false
	rec.leaseUntil = p.runtime.Now() + p.leaseTTL
	rec.epoch++
	p.weight[i].Set(1)
	p.mu.Unlock()
	p.shards[i].Reopen()
	if cb := p.cfg.Membership.OnRejoin; cb != nil {
		cb(i)
	}
}

// membershipTransitionalLocked reports whether the membership machine
// still has progress to make — a shard partway to suspicion or death,
// or a dead shard whose probe has come back and is earning its rejoin
// streak. While true the aggregator keeps ticking even with no work
// pending; every such state resolves in a bounded number of ticks, so
// an idle simulation still terminates. Caller holds p.mu.
func (p *Plane) membershipTransitionalLocked() bool {
	if !p.cfg.Membership.Enabled {
		return false
	}
	for i := range p.members {
		rec := &p.members[i]
		if rec.admin {
			continue
		}
		switch rec.state {
		case ShardUp:
			if rec.missed > 0 {
				return true
			}
		case ShardSuspect:
			return true
		case ShardDead:
			if rec.lastAlive {
				return true
			}
		}
	}
	return false
}

// DrainShard administratively removes a shard from service: it is
// marked dead, leaves the ring, and its queued work migrates to the
// other shards exactly as in a health-detected death — but the OnDeath
// hook does not fire (the operator is taking the shard, not the
// failure detector) and the shard stays out until JoinShard, no matter
// what its probes say. The last live shard cannot be drained.
func (p *Plane) DrainShard(idx int) error {
	if idx < 0 || idx >= len(p.shards) {
		return fmt.Errorf("shard: drain: index %d outside [0,%d)", idx, len(p.shards))
	}
	p.mu.Lock()
	if p.members[idx].state == ShardDead {
		p.mu.Unlock()
		return fmt.Errorf("shard: drain: %s is already out of service", p.labels[idx])
	}
	if p.ring.Members() <= 1 {
		p.mu.Unlock()
		return fmt.Errorf("shard: drain: %s is the last live shard", p.labels[idx])
	}
	p.mu.Unlock()
	p.killShard(idx, true)
	return nil
}

// JoinShard returns a dead (health-declared or administratively
// drained) shard to service immediately, without waiting out the rejoin
// hysteresis.
func (p *Plane) JoinShard(idx int) error {
	if idx < 0 || idx >= len(p.shards) {
		return fmt.Errorf("shard: join: index %d outside [0,%d)", idx, len(p.shards))
	}
	p.mu.Lock()
	dead := p.members[idx].state == ShardDead
	p.mu.Unlock()
	if !dead {
		return fmt.Errorf("shard: join: %s is already in service", p.labels[idx])
	}
	p.rejoinShard(idx)
	return nil
}

// Kick arms the capacity aggregator if it is idle. Submissions arm it
// on the hot path; call Kick after an out-of-band event that needs the
// tick loop running — e.g. a revived host that should start earning its
// rejoin streak while the cluster is otherwise quiet.
func (p *Plane) Kick() { p.armTick() }

package cluster

import (
	"fmt"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/shard"
)

// Deterministic shard churn for a ShardedSim: Kill takes a shard's
// control-plane host down for good (the probe starts failing and the
// orchestrator seals — queued jobs freeze for recovery, in-flight
// attempts finish on their boards). Schedule the kills on the shared
// virtual clock and a seeded run replays byte-identically, kill timing
// included.
//
// Worker re-homing rides the plane's OnDeath hook: when the health
// checker declares a killed shard dead, its worker partition — including
// boards it had adopted from an earlier death — moves round-robin onto
// the up shards (core.RemoveWorker hands each board over as soon as its
// current attempt settles; core.AddWorker attaches it to the survivor).
// The owner map tracks where each board currently lives. All churn runs
// on the engine thread, so none of this state needs a lock.
//
// Churn requires scfg.Membership.Enabled and is not supported together
// with power management (a power manager's node set is fixed at
// construction, so its workers cannot re-home).

// Kill takes shard si's control-plane host down: its membership probe
// fails from now on and its orchestrator seals immediately — new
// submissions bounce to the plane's failover path, queued jobs freeze
// in place until the health checker declares the shard dead and drains
// them into survivors, and attempts already executing finish on their
// boards and settle normally. No-op if the shard is already down.
func (s *ShardedSim) Kill(si int) error {
	if err := s.churnable(si); err != nil {
		return err
	}
	if s.down[si] {
		return nil
	}
	s.down[si] = true
	s.Orchs[si].Seal()
	s.Plane.Kick()
	return nil
}

// ScheduleKill arranges Kill(si) at virtual time at.
func (s *ShardedSim) ScheduleKill(at time.Duration, si int) {
	s.Engine.At(at, func() { _ = s.Kill(si) })
}

// churnable validates a Kill target.
func (s *ShardedSim) churnable(si int) error {
	if s.owner == nil {
		return fmt.Errorf("cluster: churn needs Membership.Enabled in the shard config")
	}
	if si < 0 || si >= len(s.Orchs) {
		return fmt.Errorf("cluster: shard %d outside [0,%d)", si, len(s.Orchs))
	}
	return nil
}

// upShards returns the shards the membership view considers up, in
// index order.
func (s *ShardedSim) upShards() []int {
	var up []int
	for _, st := range s.Plane.Status() {
		if st.State == shard.ShardUp.String() {
			up = append(up, st.Index)
		}
	}
	return up
}

// rehomeDead is the plane's OnDeath hook: dead shard d's boards —
// including any it had previously adopted — move round-robin onto the
// up shards. Each board detaches as soon as its in-flight attempt (if
// any) settles and attaches to its new owner then.
func (s *ShardedSim) rehomeDead(d int) {
	up := s.upShards()
	if len(up) == 0 {
		return
	}
	k := 0
	for _, ws := range s.Workers {
		for _, w := range ws {
			if s.owner[w.ID()] != d {
				continue
			}
			target := up[k%len(up)]
			k++
			s.moveWorker(w.ID(), d, target)
		}
	}
}

// moveWorker detaches a board from shard from and attaches it to shard
// to (deferred until the board's current attempt settles when busy).
// The owner map flips at handoff time, when the board actually changes
// hands. A target that is no longer up by then is passed over for the
// next up shard in index order: one declared dead in the meantime has
// already re-homed its boards, so a board attached to it would stay on
// a sealed orchestrator for good.
func (s *ShardedSim) moveWorker(id string, from, to int) {
	_ = s.Orchs[from].RemoveWorker(id, func(w core.Worker) {
		to = s.upFrom(to)
		s.owner[id] = to
		_ = s.Orchs[to].AddWorker(w)
	})
}

// upFrom returns the first up shard at or after index si, wrapping
// around, or si itself when no shard is up.
func (s *ShardedSim) upFrom(si int) int {
	up := s.upShards()
	for _, u := range up {
		if u >= si {
			return u
		}
	}
	if len(up) == 0 {
		return si
	}
	return up[0]
}

package shard

import (
	"fmt"
	"time"
)

// Dynamic shard membership: a lease-based view of which shards are
// alive, fed by heartbeats taken on the capacity aggregator's tick.
//
// Every tick the plane probes each shard (Probe — in a sharded sim this
// is backed by the harness's kill mask; a multi-host deployment would
// probe the shard's control socket). A successful probe renews the
// shard's lease to now + (DeadAfter+1) ticks; a failed one counts a
// missed heartbeat. The per-shard state machine is:
//
//	up ──(SuspectAfter missed)──▶ suspect ──(DeadAfter missed)──▶ dead
//	 ▲                              │
//	 └───────────(probe ok)─────────┘
//
// Dead is final: a dead shard's probe is still taken but moves it
// nowhere, and the shard never returns to the ring.
//
// An expired lease is an immediate death sentence regardless of the
// missed-heartbeat count: leases bound how stale any view of the
// membership can be, which is what lets two planes over the same shard
// set converge without a coordinator — membership is a pure function of
// (lease table, shared clock), and both sides run the same
// deterministic transitions from the same probes.
//
// On the up→dead edge the plane removes the shard from the ring, seals
// its orchestrator, drains every queued and backoff-parked job into
// survivors over the identity-preserving steal transport, and fires
// OnDeath (the sharded sim re-homes the dead shard's worker partition
// there). Every transition bumps the membership epoch.

// Membership thresholds. They are in aggregator ticks (the heartbeat is
// taken on the capacity tick), so wall-clock reaction time scales with
// Steal.Interval.
const (
	// DefaultSuspectAfter is the missed-heartbeat count that turns an up
	// shard suspect.
	DefaultSuspectAfter = 2
	// DefaultDeadAfter is the missed-heartbeat count that declares a
	// shard dead (must exceed SuspectAfter).
	DefaultDeadAfter = 4
)

// ShardState is one shard's position in the membership state machine.
type ShardState int

const (
	// ShardUp: heartbeats current, lease valid, shard owns ring points.
	ShardUp ShardState = iota
	// ShardSuspect: missed heartbeats past SuspectAfter; still routed to
	// (a suspect shard usually recovers) but one more threshold from
	// death.
	ShardSuspect
	// ShardDead: declared failed (missed heartbeats past DeadAfter or an
	// expired lease). Off the ring for good, sealed, queue drained into
	// survivors.
	ShardDead
)

// String renders the state as served by /shards ("up", "suspect",
// "dead").
func (s ShardState) String() string {
	switch s {
	case ShardUp:
		return "up"
	case ShardSuspect:
		return "suspect"
	case ShardDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// MembershipConfig tunes the health checker and the lease-based
// membership view. The zero value disables membership entirely: the
// shard set is fixed at construction and the plane behaves exactly like
// the static PR 7 tier (byte-identical seeded output).
type MembershipConfig struct {
	// Enabled turns dynamic membership on.
	Enabled bool
	// Probe reports whether a shard's control plane is reachable. It is
	// called once per shard per aggregator tick, in index order. Nil
	// means every shard always probes healthy.
	Probe func(shard int) bool
	// OnDeath fires after a shard is declared dead and its queue has
	// been drained into survivors (the sharded sim re-homes the worker
	// partition here). Called outside the plane lock.
	OnDeath func(shard int)
}

// memberRecord is one shard's mutable membership state.
type memberRecord struct {
	state      ShardState
	missed     int           // consecutive missed heartbeats
	epoch      int64         // transitions this shard has made
	leaseUntil time.Duration // liveness lease expiry on the cluster clock
}

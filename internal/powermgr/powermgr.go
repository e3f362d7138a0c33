// Package powermgr is the cluster's dynamic power-management plane: the
// component that finally closes the loop between the orchestrator's
// scheduling decisions and the GPIO power-control plane the paper builds
// its energy story on (Sec III-b, Sec IV-D).
//
// Without a manager, workers follow a static per-job policy (power-cycle
// around every invocation, or stay up forever). The Manager replaces that
// with a demand-driven state machine per node:
//
//	       RequestUp (wake-on-demand)
//	Down ────────────────────────────▶ Waking
//	 ▲                                   │ boot latency elapses
//	 │ idle timeout / fault / drain      ▼
//	 └────────────────────────────────  Up
//
// Three mechanisms hang off it:
//
//   - Idle power-down: a node that stays idle past IdleTimeout is powered
//     off (≈0.13 W instead of ≈1.10 W on the paper's SBCs). MinUp adds
//     hysteresis — a freshly booted node stays up at least that long — so
//     bursty arrivals do not flap nodes on and off.
//   - Wake-on-demand: dispatching against a powered-down node first powers
//     it up; the job's queue wait absorbs the boot latency (sim: modeled
//     virtual delay; live: a real wall-clock delay), and the orchestrator
//     records it as a `boot` span on the invocation's critical path.
//   - Power capping: CapW bounds the cluster's worst-case draw by limiting
//     how many nodes may be powered simultaneously (CapW over one node's
//     1.96 W busy draw). Wakes beyond the cap park in a FIFO queue —
//     backpressure the submitting jobs feel as queue wait — and start as
//     capacity frees.
//   - Predictive warm floor (SetWarmTarget): a forecast controller
//     (internal/forecast) may steer the manager ahead of demand —
//     pre-waking nodes before a load ramp so jobs land on warm workers,
//     and pre-sleeping idle surplus ahead of a trough instead of waiting
//     out the idle timeout. Reactive wake-on-demand keeps working
//     underneath; with no controller attached the manager behaves exactly
//     as before this mechanism existed.
//
// The Manager is mode-agnostic: it talks to nodes through the Node
// interface and tells time through Runtime, so the same code drives
// simulated SBCs on the virtual clock and live TCP workers on the wall
// clock. It never draws randomness and schedules timers only when enabled,
// so a cluster with no manager configured is byte-identical to one built
// before this package existed.
package powermgr

import (
	"fmt"
	"math"
	"sync"
	"time"

	"microfaas/internal/gpio"
	"microfaas/internal/power"
	"microfaas/internal/telemetry"
)

// Runtime is the manager's clock: Now returns elapsed cluster time and
// After schedules fn after d, returning a cancel function. core.SimRuntime
// (virtual time) and core.WallRuntime (wall time) both satisfy it.
type Runtime interface {
	// Now returns elapsed cluster time.
	Now() time.Duration
	// After schedules fn after d; the returned function cancels it.
	After(d time.Duration, fn func()) (cancel func())
}

// Node is a worker whose power plane the manager actuates. SimWorker and
// LiveWorker implement it when built in managed mode.
type Node interface {
	// ID names the node (matches its core.Worker id).
	ID() string
	// PowerUp boots a powered-down node: Off→Booting immediately,
	// Booting→Idle after the node's boot latency (virtual in sim, real
	// wall-clock in live mode), then ready is invoked exactly once on the
	// cluster runtime. Calling PowerUp on a node that is not Off is a
	// no-op that still invokes ready once the node is up.
	// cause is the wake's static text and job the job it was woken for
	// (gpio.NoJob for none), kept apart for the GPIO audit log.
	PowerUp(cause string, job int64, ready func())
	// PowerDown powers an idle node off, logging the transition to the
	// GPIO audit trail. It reports false — and does nothing — if the node
	// is mid-job and cannot be powered down.
	PowerDown(cause string) bool
}

// Policy is the user-facing tuning knob set, embedded in cluster configs.
type Policy struct {
	// IdleTimeout is how long a node may sit idle before the manager
	// powers it off (default 30 s).
	IdleTimeout time.Duration
	// MinUp is the hysteresis floor: a node stays powered at least this
	// long after booting, even if idle (default 2×IdleTimeout's floor of
	// 5 s). Prevents power-state flapping under bursty arrivals.
	MinUp time.Duration
	// CapW is the optional cluster-wide power budget in watts (0 = no
	// cap). The manager bounds simultaneously-powered nodes to
	// floor(CapW / 1.96 W), the paper SBC's busy draw, never below 1.
	CapW power.Watts
}

// Pre-sleep damping. Forecast-driven floors make the reactive idle timeout
// a safety net rather than the only trim path, so SetWarmTarget's trim is
// damped: a momentary forecast dip must not cycle nodes the next burst
// re-boots. Every SetWarmTarget caller is a tick-driven forecast
// controller and all of them ran this one tuning, so it is policy, not
// configuration.
const (
	// preSleepSlack keeps this many spares warm above the floor as burst
	// headroom: surplus is trimmed only while more than target+slack nodes
	// are powered.
	preSleepSlack = 1
	// preSleepSlackFrac adds ceil(frac × target) nodes to the slack, scaling
	// the headroom with the floor itself: a two-node floor tolerates a
	// one-node overshoot that a ten-node floor should shrug off several of.
	preSleepSlackFrac = 0.5
	// preSleepMax bounds how many nodes one SetWarmTarget call may
	// pre-sleep, draining surplus gradually instead of mass-trimming on a
	// dip the controller would re-wake a tick later.
	preSleepMax = 1
	// preSleepDebounce is how many consecutive SetWarmTarget calls must
	// observe surplus beyond the slack band before pre-sleep engages. It
	// tells a genuine trough (surplus persists tick after tick, so trimming
	// proceeds) from a momentary dip (the streak resets before it trims).
	preSleepDebounce = 1
)

// Config assembles a Manager.
type Config struct {
	// Runtime is the cluster clock (required).
	Runtime Runtime
	// Nodes are the managed workers (required, ids must be unique).
	Nodes []Node
	// Policy tunes timeouts and the power cap.
	Policy Policy
	// Telemetry receives the powered-workers gauges and wake/power-down
	// counters (nil = disabled; the manager's behavior is identical
	// either way).
	Telemetry *telemetry.Telemetry
}

// nodeState is the manager's view of one node's power plane.
type nodeState int

const (
	// stateDown: powered off (≈0.13 W on the paper's SBCs).
	stateDown nodeState = iota
	// stateWaking: PWR_BUT pressed, boot latency in flight.
	stateWaking
	// stateUp: booted and either idle-warm or executing.
	stateUp
)

func (s nodeState) String() string {
	switch s {
	case stateDown:
		return "off"
	case stateWaking:
		return "waking"
	case stateUp:
		return "on"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// managed is the per-node record.
type managed struct {
	node Node
	idx  int // registration order

	state nodeState
	// inUse is set from the moment the orchestrator is granted the node
	// (RequestUp) until it reports the node idle (NoteIdle); the idle
	// power-down timer only runs while clear.
	inUse bool
	// upAt is when the node last finished booting, for MinUp hysteresis.
	upAt time.Duration
	// cancelIdle cancels the pending idle power-down timer, if any.
	cancelIdle func()
	// readyCbs are orchestrator callbacks waiting on the in-flight wake.
	readyCbs []func()
	// pendingWake marks the node parked in the cap FIFO.
	pendingWake bool
	// wakeCause and wakeJob are a cap-parked wake's cause and the job it
	// wakes for.
	wakeCause string
	wakeJob   int64
	// prewarm marks an in-flight wake issued by SetWarmTarget rather
	// than demand: the node comes up idle-warm instead of granted. A
	// RequestUp arriving mid-boot converts the wake back to demand.
	prewarm bool
}

// Manager drives idle power-down, wake-on-demand, and power capping over a
// set of managed nodes. All methods are safe for concurrent use; the
// manager's lock is a leaf with respect to the orchestrator's (the
// orchestrator calls in while holding its own lock, and the manager
// invokes orchestrator callbacks only after releasing its lock).
type Manager struct {
	rt          Runtime
	idleTimeout time.Duration
	minUp       time.Duration

	mu       sync.Mutex
	nodes    map[string]*managed
	order    []*managed // registration order
	capW     power.Watts
	powered  int        // nodes Up or Waking
	waitq    []*managed // FIFO of cap-blocked wakes
	draining bool
	// target is the predictive warm floor set by SetWarmTarget: keep at
	// least this many nodes powered and trim idle surplus above it.
	// −1 (the initial value) disables predictive control entirely —
	// pure reactive behavior, byte-identical to a pre-forecast build.
	target int
	// trimStreak counts consecutive SetWarmTarget calls that saw surplus
	// beyond the slack band — the preSleepDebounce persistence counter.
	trimStreak int

	m mgrMetrics
}

// New builds a Manager and powers every node's bookkeeping down (nodes
// start Off, matching the workers' own initial state).
func New(cfg Config) (*Manager, error) {
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("powermgr: a Runtime is required")
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("powermgr: at least one node is required")
	}
	if cfg.Policy.IdleTimeout < 0 || cfg.Policy.MinUp < 0 || cfg.Policy.CapW < 0 {
		return nil, fmt.Errorf("powermgr: negative policy values")
	}
	idle := cfg.Policy.IdleTimeout
	if idle == 0 {
		idle = 30 * time.Second
	}
	minUp := cfg.Policy.MinUp
	if minUp == 0 {
		minUp = 5 * time.Second
	}
	m := &Manager{
		rt:          cfg.Runtime,
		idleTimeout: idle,
		minUp:       minUp,
		capW:        cfg.Policy.CapW,
		nodes:       make(map[string]*managed, len(cfg.Nodes)),
		target:      -1,
	}
	for i, n := range cfg.Nodes {
		if _, dup := m.nodes[n.ID()]; dup {
			return nil, fmt.Errorf("powermgr: duplicate node id %q", n.ID())
		}
		rec := &managed{node: n, idx: i, state: stateDown}
		m.nodes[n.ID()] = rec
		m.order = append(m.order, rec)
	}
	m.initTelemetry(cfg.Telemetry)
	return m, nil
}

// maxPoweredLocked returns the cap on simultaneously-powered nodes
// (0 = unlimited). Caller holds m.mu.
func (m *Manager) maxPoweredLocked() int {
	if m.capW <= 0 {
		return 0
	}
	n := int(m.capW / power.DefaultSBCModel().BusyW)
	if n < 1 {
		n = 1 // a cap below one node's draw still admits one node
	}
	return n
}

// RequestUp asks for a node to be powered and granted to the orchestrator.
// It returns true when the node is already up — the caller may dispatch
// immediately. Otherwise it returns false and arranges for ready to be
// invoked (outside the manager's lock) once the node finishes booting; if
// the power cap binds, the wake parks in FIFO order until capacity frees.
// During drain, RequestUp refuses (returns false and never calls ready).
// cause is the wake's static text and job the job that demands it
// (gpio.NoJob for none): the GPIO log renders them as "cause (job N)".
func (m *Manager) RequestUp(id, cause string, job int64, ready func()) bool {
	m.mu.Lock()
	n, ok := m.nodes[id]
	if !ok {
		m.mu.Unlock()
		panic(fmt.Sprintf("powermgr: unknown node %q", id))
	}
	if m.draining {
		m.mu.Unlock()
		return false
	}
	if n.cancelIdle != nil {
		n.cancelIdle()
		n.cancelIdle = nil
	}
	switch n.state {
	case stateUp:
		n.inUse = true
		m.mu.Unlock()
		return true
	case stateWaking:
		n.prewarm = false // demand arrived mid-boot: grant on completion
		if ready != nil {
			n.readyCbs = append(n.readyCbs, ready)
		}
		m.mu.Unlock()
		return false
	}
	// Down → wake, unless the cap binds.
	n.prewarm = false
	if ready != nil {
		n.readyCbs = append(n.readyCbs, ready)
	}
	if max := m.maxPoweredLocked(); max > 0 && m.powered >= max {
		if !n.pendingWake {
			n.pendingWake = true
			n.wakeCause, n.wakeJob = cause, job
			m.waitq = append(m.waitq, n)
			m.m.capDeferred.Inc()
		}
		m.mu.Unlock()
		return false
	}
	m.startWakeLocked(n, cause, job)
	m.mu.Unlock()
	return false
}

// startWakeLocked transitions a Down node to Waking and actuates its power
// button. Caller holds m.mu; the node's PowerUp must not call back into
// the manager synchronously (both worker implementations complete the
// boot via a scheduled timer).
func (m *Manager) startWakeLocked(n *managed, cause string, job int64) {
	n.state = stateWaking
	n.pendingWake = false
	m.powered++
	m.m.wakes.Inc()
	m.m.powered.Gauge(n.node.ID()).Set(1)
	n.node.PowerUp(cause, job, func() { m.wakeComplete(n) })
}

// wakeComplete fires on the cluster runtime when a node's boot latency has
// elapsed. If a drain started mid-boot the node is powered straight back
// down instead of being handed to the orchestrator — a wake must never
// resurrect a draining cluster's worker.
func (m *Manager) wakeComplete(n *managed) {
	m.mu.Lock()
	if m.draining {
		n.state = stateDown
		n.inUse = false
		n.prewarm = false
		n.readyCbs = nil
		m.powered--
		m.m.powered.Gauge(n.node.ID()).Set(0)
		m.m.downs.Counter("drain").Inc()
		n.node.PowerDown("drain: wake aborted")
		m.mu.Unlock()
		return
	}
	n.state = stateUp
	n.upAt = m.rt.Now()
	cbs := n.readyCbs
	n.readyCbs = nil
	// A demand wake hands the node to the orchestrator; a predictive
	// pre-warm has no waiter, so the node comes up idle-warm with the
	// reactive idle countdown armed as a backstop should the forecast
	// stop trimming.
	n.inUse = !n.prewarm
	if n.prewarm {
		n.prewarm = false
		m.armIdleLocked(n)
	}
	m.mu.Unlock()
	// Callbacks run outside m.mu: they re-enter the orchestrator, whose
	// lock must always be taken before (never after) the manager's.
	for _, cb := range cbs {
		cb()
	}
}

// NoteIdle tells the manager the node has no work (its queue is empty and
// it is not executing). The idle power-down countdown starts: the node
// powers off after IdleTimeout, but never sooner than MinUp after its last
// boot. During drain the node powers off immediately.
func (m *Manager) NoteIdle(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[id]
	if !ok || n.state != stateUp {
		return
	}
	n.inUse = false
	if m.draining {
		m.powerDownLocked(n, "drain", "drain")
		return
	}
	m.armIdleLocked(n)
}

// armIdleLocked (re)starts a node's idle power-down countdown, honoring
// the MinUp hysteresis floor. Caller holds m.mu.
func (m *Manager) armIdleLocked(n *managed) {
	if n.cancelIdle != nil {
		n.cancelIdle()
	}
	delay := m.idleTimeout
	if floor := n.upAt + m.minUp - m.rt.Now(); floor > delay {
		delay = floor
	}
	n.cancelIdle = m.rt.After(delay, func() { m.idleExpired(n) })
}

// idleExpired fires the idle power-down timer. The node may have been
// re-granted since the timer was armed (the cancel raced the firing); the
// inUse re-check under the lock makes the race harmless either way.
func (m *Manager) idleExpired(n *managed) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n.cancelIdle = nil
	if n.state != stateUp || n.inUse {
		return
	}
	if m.target >= 0 && m.powered <= m.target {
		// The predictive warm floor holds the node: stay warm with no
		// timer. The next SetWarmTarget tick trims it if the forecast
		// drops, and any NoteIdle re-arms the countdown.
		return
	}
	m.powerDownLocked(n, "idle timeout", "idle")
}

// NoteFault tells the manager a job on the node just failed. A crashed
// worker cannot be trusted warm (the paper's clean-environment guarantee,
// Sec III-a), so the manager power-cycles it: powered off now, booted
// fresh by the next wake-on-demand.
func (m *Manager) NoteFault(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[id]
	if !ok || n.state != stateUp {
		return
	}
	n.inUse = false
	if n.cancelIdle != nil {
		n.cancelIdle()
		n.cancelIdle = nil
	}
	m.powerDownLocked(n, "fault: power-cycle", "fault")
}

// powerDownLocked powers an Up node off and starts the next cap-parked
// wake with the freed budget. Caller holds m.mu.
func (m *Manager) powerDownLocked(n *managed, cause, reason string) {
	if !n.node.PowerDown(cause) {
		// The node refused (mid-job under a stale grant); leave it Up and
		// let the next NoteIdle restart the countdown.
		return
	}
	n.state = stateDown
	m.powered--
	m.m.powered.Gauge(n.node.ID()).Set(0)
	m.m.downs.Counter(reason).Inc()
	m.startNextWakeLocked()
}

// startNextWakeLocked pops cap-parked wakes while budget allows. Caller
// holds m.mu.
func (m *Manager) startNextWakeLocked() {
	if m.draining {
		return
	}
	max := m.maxPoweredLocked()
	for len(m.waitq) > 0 && (max == 0 || m.powered < max) {
		next := m.waitq[0]
		m.waitq = m.waitq[1:]
		if !next.pendingWake {
			continue // cancelled while parked
		}
		m.startWakeLocked(next, next.wakeCause, next.wakeJob)
	}
}

// Drain stops the manager for shutdown: cap-parked wakes are cancelled
// (their jobs are being abandoned by the orchestrator's drain), idle
// nodes power off immediately, and wakes that complete later are powered
// straight back down. In-flight jobs keep their nodes until NoteIdle.
func (m *Manager) Drain() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return
	}
	m.draining = true
	for _, n := range m.waitq {
		n.pendingWake = false
		n.readyCbs = nil
	}
	m.waitq = nil
	for _, n := range m.order {
		if n.cancelIdle != nil {
			n.cancelIdle()
			n.cancelIdle = nil
		}
		if n.state == stateUp && !n.inUse {
			m.powerDownLocked(n, "drain", "drain")
		}
	}
}

// IsUp reports whether the node is powered or booting — i.e. work queued
// on it will run without another wake.
func (m *Manager) IsUp(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[id]
	return ok && n.state != stateDown
}

// CanWake reports whether the power cap admits waking one more node.
func (m *Manager) CanWake() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	max := m.maxPoweredLocked()
	return max == 0 || m.powered < max
}

// StateName returns the node's power-plane state ("off", "waking", "on"),
// or "" for an unknown node.
func (m *Manager) StateName(id string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n, ok := m.nodes[id]; ok {
		return n.state.String()
	}
	return ""
}

// PoweredUp returns how many nodes are currently powered (Up or Waking).
func (m *Manager) PoweredUp() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.powered
}

// CapW returns the active power cap in watts (0 = uncapped).
func (m *Manager) CapW() power.Watts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.capW
}

// SetCapW changes the power cap in watts at runtime (0 = remove the cap).
// Raising (or removing) the cap starts parked wakes immediately; lowering
// it never force-kills powered nodes — the cluster converges downward as
// nodes idle out.
func (m *Manager) SetCapW(w power.Watts) error {
	if w < 0 {
		return fmt.Errorf("powermgr: negative power cap %v W", float64(w))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.capW = w
	m.startNextWakeLocked()
	return nil
}

// SetWarmTarget sets the predictive warm floor: the manager immediately
// pre-wakes powered-down nodes (in registration order, within the power
// cap) until at least n are powered, and pre-sleeps surplus — idle
// nodes beyond the floor are powered off now instead of waiting out the
// idle timeout (tempered by the preSleepSlack headroom, preSleepMax
// per-call trim bound, and preSleepDebounce persistence gate). The floor
// also holds nodes warm when their idle timers fire.
// n < 0 disables predictive control and returns the manager to pure
// reactive behavior (already-warm nodes decay through the normal idle
// countdown). The forecast controller calls this every tick; it is a
// no-op while draining.
func (m *Manager) SetWarmTarget(n int) { m.setWarm(n, true) }

// SetWarmFloor is SetWarmTarget without the pre-sleep side: it raises,
// holds, and (n < 0) disengages the warm floor identically, but never
// powers nodes down. Surplus nodes still carrying their reactive idle
// countdown decay through it; nodes the floor already held at expiry
// stay warm until a later trimming tick (or disengage) reclaims them.
// The forecast controller calls it while predicted demand is flat or
// rising, reserving actual trimming for ticks whose forecast says a
// trough is ahead.
func (m *Manager) SetWarmFloor(n int) { m.setWarm(n, false) }

// setWarm implements SetWarmTarget/SetWarmFloor; trim gates the
// pre-sleep pass.
func (m *Manager) setWarm(n int, trim bool) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return
	}
	m.target = n
	m.m.prewarmTarget.Set(float64(max(n, 0)))
	if n < 0 {
		// Disengage: nodes the floor was holding warm have no timer any
		// more (idleExpired consumed it without powering down), so
		// re-arm the reactive countdown on every idle node.
		m.trimStreak = 0
		for _, nd := range m.order {
			if nd.state == stateUp && !nd.inUse && nd.cancelIdle == nil {
				m.armIdleLocked(nd)
			}
		}
		m.mu.Unlock()
		return
	}
	// Pre-wake up to the floor, lowest index first, respecting the cap.
	maxP := m.maxPoweredLocked()
	for _, nd := range m.order {
		if m.powered >= n || (maxP > 0 && m.powered >= maxP) {
			break
		}
		if nd.state == stateDown && !nd.pendingWake {
			nd.prewarm = true
			m.startWakeLocked(nd, "prewarm", gpio.NoJob)
		}
	}
	// Pre-sleep the surplus, highest index first: idle, past the MinUp
	// hysteresis, outside the preSleepSlack band, and not holding the
	// cluster below the floor. preSleepMax rate-limits the trim per call;
	// nodes it leaves powered keep their reactive idle countdown, so a
	// genuine trough still drains them.
	slack := preSleepSlack + int(math.Ceil(preSleepSlackFrac*float64(n)))
	if m.powered > n+slack {
		m.trimStreak++
	} else {
		m.trimStreak = 0
	}
	if !trim || m.trimStreak <= preSleepDebounce {
		m.mu.Unlock()
		return
	}
	trimmed := 0
	for i := len(m.order) - 1; i >= 0 && m.powered > n+slack; i-- {
		nd := m.order[i]
		if nd.state != stateUp || nd.inUse || m.rt.Now() < nd.upAt+m.minUp {
			continue
		}
		if nd.cancelIdle != nil {
			nd.cancelIdle()
			nd.cancelIdle = nil
		}
		m.powerDownLocked(nd, "predictive trough", "predictive")
		if trimmed++; trimmed >= preSleepMax {
			break
		}
	}
	m.mu.Unlock()
}

// NodeStatus is one node's row in a Status snapshot.
type NodeStatus struct {
	// ID names the node (matches its core.Worker id).
	ID string `json:"id"`
	// State is "off", "waking", or "on".
	State string `json:"state"`
	// InUse is true while the orchestrator holds the node (granted work
	// since the last idle notification).
	InUse bool `json:"in_use"`
	// PendingWake marks a wake parked behind the power cap.
	PendingWake bool `json:"pending_wake,omitempty"`
}

// Status is a point-in-time snapshot of the manager, as served by the
// gateway's /power endpoint.
type Status struct {
	// Powered counts nodes Up or Waking; Total is all managed nodes.
	Powered int `json:"powered"`
	// Total is the managed-node count.
	Total int `json:"total"`
	// CapW is the active cluster power budget in watts (0 = uncapped);
	// MaxPowered the node count it admits (0 = unlimited).
	CapW float64 `json:"cap_w"`
	// MaxPowered is the simultaneous-powered-node bound CapW implies.
	MaxPowered int `json:"max_powered"`
	// PendingWakes counts cap-parked wakes awaiting budget.
	PendingWakes int `json:"pending_wakes"`
	// IdleTimeoutMs/MinUpMs echo the policy in milliseconds.
	IdleTimeoutMs float64 `json:"idle_timeout_ms"`
	// MinUpMs is the policy's minimum-up hysteresis in milliseconds.
	MinUpMs float64 `json:"min_up_ms"`
	// Predictive is true while a forecast controller is steering the
	// manager through SetWarmTarget; WarmTarget is the active floor.
	Predictive bool `json:"predictive,omitempty"`
	// WarmTarget is the predictive warm floor in nodes (meaningful only
	// while Predictive).
	WarmTarget int `json:"warm_target,omitempty"`
	// Draining is true once Drain has been called: no new wakes.
	Draining bool `json:"draining,omitempty"`
	// Nodes lists every managed node in registration order.
	Nodes []NodeStatus `json:"nodes"`
}

// Snapshot returns the manager's current Status.
func (m *Manager) Snapshot() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{
		Powered:       m.powered,
		Total:         len(m.order),
		CapW:          float64(m.capW),
		MaxPowered:    m.maxPoweredLocked(),
		IdleTimeoutMs: float64(m.idleTimeout) / float64(time.Millisecond),
		MinUpMs:       float64(m.minUp) / float64(time.Millisecond),
		Predictive:    m.target >= 0,
		WarmTarget:    max(m.target, 0),
		Draining:      m.draining,
	}
	for _, n := range m.waitq {
		if n.pendingWake {
			st.PendingWakes++
		}
	}
	for _, n := range m.order {
		st.Nodes = append(st.Nodes, NodeStatus{
			ID:          n.node.ID(),
			State:       n.state.String(),
			InUse:       n.inUse,
			PendingWake: n.pendingWake,
		})
	}
	return st
}

// Occupancy returns how many powered nodes the orchestrator currently
// holds (granted work since their last idle notification) alongside the
// powered total. busy == powered > 0 means the warm pool is saturated —
// the forecast controller's trigger for spare-node headroom.
func (m *Manager) Occupancy() (busy, powered int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, n := range m.order {
		if n.state != stateDown && n.inUse {
			busy++
		}
	}
	return busy, m.powered
}

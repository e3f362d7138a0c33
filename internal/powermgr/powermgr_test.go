// Tests drive the Manager over real SimWorkers on the discrete-event
// engine, so every scenario — including the same-instant races — runs the
// exact node and GPIO code the managed sim cluster uses. (The external
// test package avoids the core→powermgr import cycle.)
package powermgr_test

import (
	"testing"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/gpio"
	"microfaas/internal/model"
	"microfaas/internal/node"
	"microfaas/internal/power"
	"microfaas/internal/powermgr"
	"microfaas/internal/sim"
)

const bootTime = time.Second

// rig is a manager over n managed SimWorkers with a 1-second boot and no
// jitter, so event times are exact.
type rig struct {
	engine  *sim.Engine
	gpio    *gpio.Controller
	mgr     *powermgr.Manager
	workers []*node.SimWorker
}

func newRig(t *testing.T, n int, pol powermgr.Policy) *rig {
	t.Helper()
	r := &rig{engine: sim.NewEngine(1), gpio: gpio.NewController()}
	meter := power.NewMeter()
	nodes := make([]powermgr.Node, 0, n)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = string(rune('a' + i))
	}
	ws, err := node.NewSimWorkers(node.SimWorkerConfig{
		Platform:    model.ARM,
		BoardConfig: node.BoardConfig{BootTime: bootTime},
		Engine:      r.engine,
		Meter:       meter,
		GPIO:        r.gpio,
		Managed:     true,
	}, ids)
	if err != nil {
		t.Fatal(err)
	}
	r.workers = ws
	for _, w := range ws {
		nodes = append(nodes, w)
	}
	mgr, err := powermgr.New(powermgr.Config{
		Runtime: core.SimRuntime{Engine: r.engine},
		Nodes:   nodes,
		Policy:  pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.mgr = mgr
	return r
}

// transitions renders a node's audit log as "from>to" steps.
func (r *rig) transitions(id string) []string {
	var out []string
	for _, e := range r.gpio.Events() {
		if e.Node == id {
			out = append(out, e.From.String()+">"+e.To.String())
		}
	}
	return out
}

func sameSeq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWakeOnDemand(t *testing.T) {
	r := newRig(t, 1, powermgr.Policy{IdleTimeout: 10 * time.Second})
	ready := false
	if r.mgr.RequestUp("a", "test wake", gpio.NoJob, func() { ready = true }) {
		t.Fatal("RequestUp on a powered-down node returned true")
	}
	if got := r.mgr.StateName("a"); got != "waking" {
		t.Fatalf("state = %q, want waking", got)
	}
	r.engine.Run(bootTime)
	if !ready {
		t.Fatal("ready callback did not fire after the boot latency")
	}
	if got := r.mgr.StateName("a"); got != "on" {
		t.Fatalf("state = %q, want on", got)
	}
	if !r.mgr.RequestUp("a", "again", gpio.NoJob, nil) {
		t.Fatal("RequestUp on an up node returned false")
	}
	if got := r.mgr.PoweredUp(); got != 1 {
		t.Fatalf("PoweredUp = %d, want 1", got)
	}
}

// TestIdlePowerDownWakeRace is the same-instant race table test: the idle
// power-down timer and a new wake request land on the same virtual
// instant, in both orders. Either way the GPIO audit log must stay
// monotone and the node must end up powered: when the timer fires first
// the log shows a power-cycle (on>off then off>booting at the same
// timestamp); when the wake lands first it cancels the timer and the node
// never blips off.
func TestIdlePowerDownWakeRace(t *testing.T) {
	const idle = 4 * time.Second
	cases := []struct {
		name       string
		timerFirst bool // arm the idle timer before scheduling the wake
		want       []string
	}{
		{
			name:       "power-down-fires-first",
			timerFirst: true,
			want:       []string{"off>booting", "booting>idle", "idle>off", "off>booting", "booting>idle"},
		},
		{
			name:       "wake-cancels-power-down",
			timerFirst: false,
			want:       []string{"off>booting", "booting>idle"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 1, powermgr.Policy{IdleTimeout: idle, MinUp: time.Millisecond})
			r.mgr.RequestUp("a", "first wake", gpio.NoJob, nil)
			r.engine.Run(bootTime) // node is up at t=bootTime
			raceAt := bootTime + idle
			wake := func() { r.mgr.RequestUp("a", "racing wake", gpio.NoJob, nil) }
			if tc.timerFirst {
				// NoteIdle arms the timer for raceAt; the wake event is
				// scheduled after it, so with equal timestamps the engine
				// fires the power-down first.
				r.mgr.NoteIdle("a")
				r.engine.Schedule(raceAt-r.engine.Now(), wake)
			} else {
				r.engine.Schedule(raceAt-r.engine.Now(), wake)
				r.mgr.NoteIdle("a")
			}
			r.engine.RunAll()
			if got := r.mgr.StateName("a"); got != "on" {
				t.Fatalf("state after race = %q, want on", got)
			}
			if got := r.transitions("a"); !sameSeq(got, tc.want) {
				t.Fatalf("audit log = %v, want %v", got, tc.want)
			}
			// The audit log must be monotone even with two transitions on
			// the same instant.
			events := r.gpio.Events()
			for i := 1; i < len(events); i++ {
				if events[i].At < events[i-1].At {
					t.Fatalf("audit log went backwards: %v after %v", events[i], events[i-1])
				}
			}
		})
	}
}

// TestWakeMidDrainDoesNotResurrect is the drain regression test: a wake
// in flight when Drain is called must power straight back down when the
// boot completes — never hand the node to the orchestrator.
func TestWakeMidDrainDoesNotResurrect(t *testing.T) {
	r := newRig(t, 1, powermgr.Policy{IdleTimeout: 10 * time.Second})
	ready := false
	r.mgr.RequestUp("a", "doomed wake", gpio.NoJob, func() { ready = true })
	r.engine.Run(bootTime / 2)
	r.mgr.Drain()
	r.engine.RunAll()
	if ready {
		t.Fatal("ready callback fired for a wake that completed mid-drain")
	}
	if got := r.mgr.StateName("a"); got != "off" {
		t.Fatalf("state after drain = %q, want off", got)
	}
	if got := r.mgr.PoweredUp(); got != 0 {
		t.Fatalf("PoweredUp = %d, want 0", got)
	}
	want := []string{"off>booting", "booting>idle", "idle>off"}
	if got := r.transitions("a"); !sameSeq(got, want) {
		t.Fatalf("audit log = %v, want %v", got, want)
	}
	// And a fresh request during drain must refuse outright.
	if r.mgr.RequestUp("a", "post-drain", gpio.NoJob, func() { t.Fatal("ready fired during drain") }) {
		t.Fatal("RequestUp succeeded on a draining manager")
	}
	r.engine.RunAll()
}

func TestPowerCapFIFO(t *testing.T) {
	// Cap admits two nodes at 1.96 W each; the third and fourth wakes
	// park and must start in FIFO order as capacity frees.
	nodeW := power.DefaultSBCModel().BusyW
	r := newRig(t, 4, powermgr.Policy{IdleTimeout: time.Hour, CapW: 2 * nodeW})
	order := make([]string, 0, 4)
	for _, id := range []string{"a", "b", "c", "d"} {
		id := id
		r.mgr.RequestUp(id, "cap test", gpio.NoJob, func() { order = append(order, id) })
	}
	if !r.mgr.CanWake() {
		// expected: cap is saturated with a and b waking
	} else {
		t.Fatal("CanWake true with the cap saturated")
	}
	r.engine.RunAll()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("ready order under cap = %v, want [a b]", order)
	}
	if got := r.mgr.Snapshot().PendingWakes; got != 2 {
		t.Fatalf("PendingWakes = %d, want 2", got)
	}
	// Fault a powered node: its budget frees and c (first in) wakes.
	r.mgr.NoteFault("a")
	r.engine.RunAll()
	if len(order) != 3 || order[2] != "c" {
		t.Fatalf("ready order after freed budget = %v, want [a b c]", order)
	}
	// Raising the cap starts the rest.
	if err := r.mgr.SetCapW(4 * nodeW); err != nil {
		t.Fatal(err)
	}
	r.engine.RunAll()
	if len(order) != 4 || order[3] != "d" {
		t.Fatalf("ready order after raising cap = %v, want [a b c d]", order)
	}
}

func TestMinUpHysteresis(t *testing.T) {
	const minUp = 10 * time.Second
	r := newRig(t, 1, powermgr.Policy{IdleTimeout: time.Second, MinUp: minUp})
	r.mgr.RequestUp("a", "wake", gpio.NoJob, nil)
	r.engine.Run(bootTime)
	r.mgr.NoteIdle("a") // idle immediately after boot
	r.engine.RunAll()
	evs := r.gpio.Events()
	last := evs[len(evs)-1] // "a" is the rig's only node
	if last.To != power.Off {
		t.Fatalf("node did not power down: %v", last)
	}
	// The 1 s idle timeout is floored by MinUp: off at bootTime+minUp.
	if want := bootTime + minUp; last.At != want {
		t.Fatalf("powered down at %v, want %v (MinUp hysteresis)", last.At, want)
	}
}

func TestSetCapWRejectsNegative(t *testing.T) {
	r := newRig(t, 1, powermgr.Policy{})
	if err := r.mgr.SetCapW(-1); err == nil {
		t.Fatal("SetCapW(-1) succeeded")
	}
}

func TestNoteFaultPowerCycles(t *testing.T) {
	r := newRig(t, 1, powermgr.Policy{IdleTimeout: time.Hour})
	r.mgr.RequestUp("a", "wake", gpio.NoJob, nil)
	r.engine.RunAll()
	r.mgr.NoteFault("a")
	if got := r.mgr.StateName("a"); got != "off" {
		t.Fatalf("state after fault = %q, want off (power-cycled)", got)
	}
	// The next request boots it fresh.
	if r.mgr.RequestUp("a", "rewake", gpio.NoJob, nil) {
		t.Fatal("RequestUp returned true on a power-cycled node")
	}
	r.engine.RunAll()
	if got := r.mgr.StateName("a"); got != "on" {
		t.Fatalf("state after rewake = %q, want on", got)
	}
}

// TestSetWarmTargetStateMachine tables the predictive-mode transitions:
// pre-wake up to the floor, demand conversion mid-boot, floor holding
// idle timers, damped pre-sleep of surplus (one tick of debounce, then
// one node per tick), MinUp protecting fresh nodes, and the return to
// reactive decay when the controller disengages.
func TestSetWarmTargetStateMachine(t *testing.T) {
	const (
		idle  = 4 * time.Second
		minUp = 2 * time.Second
	)
	type step struct {
		name string
		run  func(r *rig)
		// want maps node id → expected StateName after the step.
		want map[string]string
	}
	steps := []step{
		{
			name: "pre-wake to floor 2",
			run: func(r *rig) {
				r.mgr.SetWarmTarget(2)
				r.engine.RunAll() // boots complete
			},
			want: map[string]string{"a": "on", "b": "on", "c": "off"},
		},
		{
			name: "floor holds idle timers",
			run: func(r *rig) {
				// Pre-warmed nodes carry a reactive idle countdown as a
				// backstop, but the floor keeps them warm when it fires.
				r.engine.RunAll()
			},
			want: map[string]string{"a": "on", "b": "on", "c": "off"},
		},
		{
			name: "raise floor to 3",
			run: func(r *rig) {
				r.mgr.SetWarmTarget(3)
				r.engine.RunAll()
			},
			want: map[string]string{"a": "on", "b": "on", "c": "on"},
		},
		{
			name: "demand grant from warm pool is instant",
			run: func(r *rig) {
				if !r.mgr.RequestUp("a", "demand", gpio.NoJob, nil) {
					t.Fatal("RequestUp on a pre-warmed node returned false, want instant grant")
				}
			},
			want: map[string]string{"a": "on", "b": "on", "c": "on"},
		},
		{
			name: "first trough tick only arms the debounce",
			run: func(r *rig) {
				// Floor drops to 0 while a is granted: b and c are idle
				// surplus, but one tick of surplus may be a forecast dip.
				r.mgr.SetWarmTarget(0)
			},
			want: map[string]string{"a": "on", "b": "on", "c": "on"},
		},
		{
			name: "persisting surplus pre-sleeps one node per tick, highest index first",
			run: func(r *rig) {
				r.mgr.SetWarmTarget(0)
			},
			want: map[string]string{"a": "on", "b": "on", "c": "off"},
		},
		{
			name: "pre-sleep keeps the in-use node",
			run: func(r *rig) {
				r.mgr.SetWarmTarget(0) // trims b
				r.mgr.SetWarmTarget(0) // only a is left, and it is granted
			},
			want: map[string]string{"a": "on", "b": "off", "c": "off"},
		},
		{
			name: "MinUp protects a fresh pre-warm from the trim",
			run: func(r *rig) {
				r.mgr.SetWarmTarget(2) // re-wakes b
				// Advance just past b's boot; MinUp is not yet met.
				r.engine.Run(r.engine.Now() + bootTime)
				r.mgr.SetWarmTarget(0) // trough: arms the debounce
				r.mgr.SetWarmTarget(0) // would trim b, were it not fresh
			},
			// b survives the trim (fresh); a survives (in use).
			want: map[string]string{"a": "on", "b": "on", "c": "off"},
		},
		{
			name: "next tick trims once MinUp elapses",
			run: func(r *rig) {
				r.engine.Run(r.engine.Now() + minUp)
				r.mgr.SetWarmTarget(0)
			},
			want: map[string]string{"a": "on", "b": "off", "c": "off"},
		},
		{
			name: "disable returns to reactive decay",
			run: func(r *rig) {
				r.mgr.SetWarmTarget(-1)
				r.mgr.NoteIdle("a") // orchestrator releases a
				r.engine.RunAll()   // idle timeout fires, nothing holds it
			},
			want: map[string]string{"a": "off", "b": "off", "c": "off"},
		},
	}
	r := newRig(t, 3, powermgr.Policy{IdleTimeout: idle, MinUp: minUp})
	for _, st := range steps {
		st.run(r)
		for id, want := range st.want {
			if got := r.mgr.StateName(id); got != want {
				t.Fatalf("%s: node %s state = %q, want %q", st.name, id, got, want)
			}
		}
	}
	if s := r.mgr.Snapshot(); s.Predictive || s.WarmTarget != 0 {
		t.Fatalf("after disable: snapshot predictive=%v target=%d, want off/0", s.Predictive, s.WarmTarget)
	}
}

// TestSetWarmFloorNeverTrims pins the floor-only call: lowering the
// floor pre-sleeps nothing. Nodes the floor held at their last idle
// expiry stay warm (their countdown was consumed), while any node the
// orchestrator releases afterwards decays through the normal reactive
// timeout.
func TestSetWarmFloorNeverTrims(t *testing.T) {
	r := newRig(t, 3, powermgr.Policy{IdleTimeout: 4 * time.Second})
	r.mgr.SetWarmTarget(3)
	r.engine.RunAll() // boots complete; idle backstops fire and are held
	if got := r.mgr.PoweredUp(); got != 3 {
		t.Fatalf("powered = %d, want 3 pre-warmed", got)
	}
	r.mgr.SetWarmFloor(1)
	r.engine.RunAll()
	if got := r.mgr.PoweredUp(); got != 3 {
		t.Fatalf("powered after SetWarmFloor(1) = %d, want 3 (floor never trims)", got)
	}
	// A demand grant + release re-arms one node's countdown; with the
	// cluster above the floor, that node now decays reactively.
	if !r.mgr.RequestUp("c", "demand", gpio.NoJob, nil) {
		t.Fatal("RequestUp on a warm node returned false")
	}
	r.mgr.NoteIdle("c")
	r.engine.RunAll()
	if got := r.mgr.PoweredUp(); got != 2 {
		t.Fatalf("powered after release+timeout = %d, want 2", got)
	}
	if got := r.mgr.StateName("c"); got != "off" {
		t.Fatalf("released node state = %q, want off", got)
	}
}

// TestPreSleepSlackAndDebounce tables the trim dampers: surplus within
// the slack band is never trimmed, a surplus beyond it must persist for
// more than preSleepDebounce (1) consecutive calls, and preSleepMax (1)
// bounds each call's trims.
func TestPreSleepSlackAndDebounce(t *testing.T) {
	r := newRig(t, 4, powermgr.Policy{IdleTimeout: time.Hour}) // keep reactive decay out of the way
	r.mgr.SetWarmTarget(4)
	r.engine.RunAll()
	steps := []struct {
		name   string
		target int
		want   int // powered after one more SetWarmTarget(target)
	}{
		{"first surplus call only arms the debounce", 0, 4},
		{"a call without surplus resets the streak", 4, 4},
		{"so the next surplus call only arms again", 0, 4},
		{"second consecutive call trims, capped at one node", 0, 3},
		{"third call trims the next one", 0, 2},
		{"fourth call trims down to the slack band", 0, 1},
		{"at target+slack the trim disengages", 0, 1},
	}
	for _, st := range steps {
		r.mgr.SetWarmTarget(st.target)
		r.engine.RunAll()
		if got := r.mgr.PoweredUp(); got != st.want {
			t.Fatalf("%s: powered = %d, want %d", st.name, got, st.want)
		}
	}
}

// TestPreSleepSlackFrac pins the target-scaled slack: ceil(0.5×target)
// joins the one node of flat headroom before any trim fires.
func TestPreSleepSlackFrac(t *testing.T) {
	r := newRig(t, 6, powermgr.Policy{IdleTimeout: time.Hour})
	r.mgr.SetWarmTarget(6)
	r.engine.RunAll()
	// Floor 2: slack = 1 + ceil(0.5×2) = 2, so the trim stops at 4 — one
	// node above where the flat slack alone would.
	for i := 0; i < 6; i++ {
		r.mgr.SetWarmTarget(2)
	}
	if got := r.mgr.PoweredUp(); got != 4 {
		t.Fatalf("powered = %d, want 4 (target 2 + 1 flat + ceil(0.5×2) scaled slack)", got)
	}
	// Floor 3 earns another node of headroom: 3 + 1 + ceil(0.5×3) = 6, so
	// a cluster of 5 is inside the band and nothing ever trims.
	r.mgr.SetWarmTarget(5)
	r.engine.RunAll()
	for i := 0; i < 6; i++ {
		r.mgr.SetWarmTarget(3)
	}
	if got := r.mgr.PoweredUp(); got != 5 {
		t.Fatalf("powered = %d, want 5 (inside floor 3's band of 6)", got)
	}
}

// TestOccupancy pins the saturation signal: granted nodes count as
// busy until the orchestrator's idle note releases them.
func TestOccupancy(t *testing.T) {
	r := newRig(t, 2, powermgr.Policy{IdleTimeout: time.Hour})
	r.mgr.SetWarmTarget(2)
	r.engine.RunAll()
	if busy, powered := r.mgr.Occupancy(); busy != 0 || powered != 2 {
		t.Fatalf("idle occupancy = %d/%d, want 0/2", busy, powered)
	}
	r.mgr.RequestUp("a", "demand", gpio.NoJob, nil)
	if busy, powered := r.mgr.Occupancy(); busy != 1 || powered != 2 {
		t.Fatalf("granted occupancy = %d/%d, want 1/2", busy, powered)
	}
	r.mgr.NoteIdle("a")
	if busy, _ := r.mgr.Occupancy(); busy != 0 {
		t.Fatalf("busy after NoteIdle = %d, want 0", busy)
	}
}

// TestSetWarmTargetRespectsCap pins the cap interaction: the floor never
// powers past CapW over one node's busy draw.
func TestSetWarmTargetRespectsCap(t *testing.T) {
	nodeW := power.DefaultSBCModel().BusyW
	r := newRig(t, 4, powermgr.Policy{IdleTimeout: time.Hour, CapW: 2 * nodeW})
	r.mgr.SetWarmTarget(4)
	r.engine.RunAll()
	if got := r.mgr.PoweredUp(); got != 2 {
		t.Fatalf("powered = %d, want 2 (cap binds the pre-wake)", got)
	}
}

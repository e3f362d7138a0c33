// Controller tests drive the full loop — telemetry counters scraped
// into a real store, predictions steering a real manager over simulated
// workers on the discrete-event engine. (The external test package
// avoids the powermgr import cycle.)
package forecast_test

import (
	"fmt"
	"testing"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/forecast"
	"microfaas/internal/gpio"
	"microfaas/internal/model"
	"microfaas/internal/node"
	"microfaas/internal/power"
	"microfaas/internal/powermgr"
	"microfaas/internal/sim"
	"microfaas/internal/telemetry"
	"microfaas/internal/tsdb"
)

// ctlRig wires engine → workers → manager → store → controller.
type ctlRig struct {
	engine *sim.Engine
	mgr    *powermgr.Manager
	store  *tsdb.Store
	ctl    *forecast.Controller
	sub    *telemetry.Counter
}

func newCtlRig(t *testing.T, n int, pol forecast.Policy) *ctlRig {
	t.Helper()
	r := &ctlRig{engine: sim.NewEngine(1)}
	meter := power.NewMeter()
	g := gpio.NewController()
	nodes := make([]powermgr.Node, 0, n)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = string(rune('a' + i))
	}
	ws, err := node.NewSimWorkers(node.SimWorkerConfig{
		Platform:    model.ARM,
		BoardConfig: node.BoardConfig{BootTime: time.Second},
		Engine:      r.engine,
		Meter:       meter,
		GPIO:        g,
		Managed:     true,
	}, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		nodes = append(nodes, w)
	}
	mgr, err := powermgr.New(powermgr.Config{
		Runtime: core.SimRuntime{Engine: r.engine},
		Nodes:   nodes,
		Policy:  powermgr.Policy{IdleTimeout: 10 * time.Second, MinUp: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.mgr = mgr
	tel := telemetry.New()
	r.sub = tel.Registry().Counter(tsdb.MetricSubmittedByFunction, "submissions", "function", "f")
	r.store = tsdb.New(tsdb.Config{})
	r.store.AddSource("", tel.Registry())
	ctl, err := forecast.NewController(forecast.ControllerConfig{
		Store:   r.store,
		Manager: mgr,
		Policy:  pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.ctl = ctl
	return r
}

// phase schedules one observe/tick per second over [from, to) with the
// given per-second arrival count, then runs the engine through it.
func (r *ctlRig) phase(from, to int, arrivals func(i int) float64) {
	for i := from; i < to; i++ {
		at := time.Duration(i) * time.Second
		add := arrivals(i)
		r.engine.At(at, func() {
			r.sub.Add(add)
			r.store.Scrape(at)
			r.ctl.Tick(at)
		})
	}
	r.engine.Run(time.Duration(to) * time.Second)
}

func TestControllerSteersWarmFloorAndRecovers(t *testing.T) {
	pol := forecast.Policy{
		Tick:         time.Second,
		Horizon:      time.Second,
		CycleTime:    time.Second,
		RecoverTicks: 2,
		MaxWorkers:   3,
	}
	r := newCtlRig(t, 3, pol)

	// Steady 2/s: predictions hold, the floor pre-warms the cluster.
	r.phase(1, 21, func(i int) float64 { return 2 })
	snap := r.ctl.Snapshot()
	if snap.Mode != "predictive" {
		t.Fatalf("steady mode = %q, want predictive", snap.Mode)
	}
	// demand ≈ 2/s × 1 s × 1.25 margin → 3 nodes.
	if snap.Target != 3 || warmTarget(r.mgr) != 3 {
		t.Fatalf("steady target = %d (mgr %d), want 3", snap.Target, warmTarget(r.mgr))
	}
	if got := r.mgr.PoweredUp(); got != 3 {
		t.Fatalf("powered = %d, want 3 pre-warmed", got)
	}
	if len(snap.Functions) != 1 || snap.Functions[0].Function != "f" {
		t.Fatalf("snapshot functions = %+v", snap.Functions)
	}

	// Bursty anti-pattern: every one-tick-ahead prediction lands on the
	// opposite phase. The error ratio crosses ErrLimit → fallback, and
	// the manager returns to pure reactive control.
	r.phase(21, 61, func(i int) float64 {
		if i%2 == 0 {
			return 12
		}
		return 0
	})
	snap = r.ctl.Snapshot()
	if snap.Mode != "fallback" {
		t.Fatalf("bursty mode = %q (err %.2f), want fallback", snap.Mode, snap.ErrorRatio)
	}
	if snap.Fallbacks < 1 {
		t.Fatalf("fallbacks = %d, want ≥1", snap.Fallbacks)
	}
	if warmTarget(r.mgr) != -1 {
		t.Fatalf("mgr warm target in fallback = %d, want -1 (disengaged)", warmTarget(r.mgr))
	}

	// Steady again: the error decays under ErrRecover and, after
	// RecoverTicks consecutive good ticks, predictive mode re-engages.
	r.phase(61, 151, func(i int) float64 { return 2 })
	snap = r.ctl.Snapshot()
	if snap.Mode != "predictive" {
		t.Fatalf("recovered mode = %q (err %.2f), want predictive", snap.Mode, snap.ErrorRatio)
	}
	if warmTarget(r.mgr) != 3 {
		t.Fatalf("recovered mgr target = %d, want 3", warmTarget(r.mgr))
	}
}

// TestSpareHeadroomOnSaturation pins the Policy.Spare bump: when every
// powered node is busy at tick time (and at least spareMinBusy of them),
// the controller raises the floor past the occupancy point even though
// the rate forecast asks for less.
func TestSpareHeadroomOnSaturation(t *testing.T) {
	pol := forecast.Policy{
		Tick:       time.Second,
		Horizon:    time.Second,
		CycleTime:  time.Second,
		MaxWorkers: 6,
		Spare:      1,
	}
	r := newCtlRig(t, 6, pol)

	// Steady 3/s → demand 3 × 1.25 margin → floor 4 pre-warmed.
	r.phase(1, 21, func(i int) float64 { return 3 })
	if got := r.mgr.PoweredUp(); got != 4 {
		t.Fatalf("steady powered = %d, want 4 pre-warmed", got)
	}

	// Saturate: the orchestrator grabs all four warm nodes. The next
	// tick sees busy == powered == 4 ≥ spareMinBusy and wakes a spare.
	warm := poweredIDs(r.mgr)
	for _, id := range warm {
		if !r.mgr.RequestUp(id, "burst", gpio.NoJob, nil) {
			t.Fatalf("RequestUp(%s) on a warm node returned false", id)
		}
	}
	r.phase(21, 22, func(i int) float64 { return 3 })
	if got := warmTarget(r.mgr); got != 5 {
		t.Fatalf("saturated warm target = %d, want 5 (powered 4 + spare 1)", got)
	}
	r.engine.Run(23 * time.Second) // the spare's boot completes
	if got := r.mgr.PoweredUp(); got != 5 {
		t.Fatalf("powered after spare wake = %d, want 5", got)
	}

	// Release the burst: with headroom back, the bump disengages and the
	// target returns to the rate-driven floor.
	for _, id := range warm {
		r.mgr.NoteIdle(id)
	}
	r.phase(23, 24, func(i int) float64 { return 3 })
	if got := r.ctl.Snapshot().Target; got != 4 {
		t.Fatalf("post-burst target = %d, want 4 (rate-driven floor)", got)
	}
}

// TestSpareIgnoresSmallSaturation pins the spareMinBusy guard: a couple
// of busy nodes saturating a small pool is routine trough traffic and
// must not wake headroom.
func TestSpareIgnoresSmallSaturation(t *testing.T) {
	pol := forecast.Policy{
		Tick:       time.Second,
		Horizon:    time.Second,
		CycleTime:  time.Second,
		MaxWorkers: 6,
		Spare:      1,
	}
	r := newCtlRig(t, 6, pol)
	// Steady 1.5/s → demand 1.5 × 1.25 → floor 2.
	r.phase(1, 21, func(i int) float64 { return 1.5 })
	if got := r.mgr.PoweredUp(); got != 2 {
		t.Fatalf("steady powered = %d, want 2", got)
	}
	for _, id := range poweredIDs(r.mgr) {
		if !r.mgr.RequestUp(id, "trough", gpio.NoJob, nil) {
			t.Fatalf("RequestUp(%s) returned false", id)
		}
	}
	r.phase(21, 22, func(i int) float64 { return 1.5 })
	if got := warmTarget(r.mgr); got != 2 {
		t.Fatalf("warm target with 2 busy = %d, want 2 (below spareMinBusy)", got)
	}
}

// TestControllerObserveOnly pins the nil-manager mode: forecasts and
// error accounting run, nothing is actuated.
func TestControllerObserveOnly(t *testing.T) {
	tel := telemetry.New()
	sub := tel.Registry().Counter(tsdb.MetricSubmittedByFunction, "submissions", "function", "f")
	store := tsdb.New(tsdb.Config{})
	store.AddSource("", tel.Registry())
	ctl, err := forecast.NewController(forecast.ControllerConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		sub.Add(3)
		at := time.Duration(i) * time.Second
		store.Scrape(at)
		ctl.Tick(at)
	}
	snap := ctl.Snapshot()
	if snap.Mode != "predictive" || snap.Target == 0 || snap.Ticks != 10 {
		t.Fatalf("observe-only snapshot = %+v", snap)
	}
}

// TestControllerStartStop pins the live-mode ticker: Start drives ticks
// on the runtime and stop disengages the warm floor.
func TestControllerStartStop(t *testing.T) {
	pol := forecast.Policy{Tick: time.Second, Horizon: time.Second, CycleTime: time.Second, MaxWorkers: 2}
	r := newCtlRig(t, 2, pol)
	stop := r.ctl.Start(core.SimRuntime{Engine: r.engine}, time.Second)
	// Feed arrivals and scrapes alongside the self-rescheduling ticks.
	for i := 1; i <= 10; i++ {
		at := time.Duration(i)*time.Second - time.Millisecond
		r.engine.At(at, func() {
			r.sub.Add(4)
			r.store.Scrape(at)
		})
	}
	r.engine.Run(10 * time.Second)
	if snap := r.ctl.Snapshot(); snap.Ticks == 0 || snap.Target == 0 {
		t.Fatalf("ticker snapshot = %+v, want live ticks and a target", snap)
	}
	stop()
	if warmTarget(r.mgr) != -1 {
		t.Fatalf("warm target after stop = %d, want -1", warmTarget(r.mgr))
	}
	// The ticker must actually stop: the queue drains in a few events
	// within the next minute.
	if n := r.engine.Run(r.engine.Now() + time.Minute); n > 3 || r.engine.Step() {
		t.Fatalf("%d events ran after stop, or the queue did not drain: want the ticker gone", n)
	}
}

// warmTarget reads the manager's active predictive warm floor off its
// snapshot: −1 while no forecast controller steers it.
func warmTarget(m *powermgr.Manager) int {
	if st := m.Snapshot(); st.Predictive {
		return st.WarmTarget
	}
	return -1
}

// poweredIDs returns the manager's powered (on or waking) nodes, in
// registration order.
func poweredIDs(m *powermgr.Manager) []string {
	var out []string
	for _, n := range m.Snapshot().Nodes {
		if n.State != "off" {
			out = append(out, n.ID)
		}
	}
	return out
}

// TestControllerTickAllocs pins the predictive loop's steady-state cost:
// one scrape of 16 per-function submission counters and one Tick that
// reads their arrival rates and updates every predictor. Twenty
// allocations per tick is the count this test was written at.
func TestControllerTickAllocs(t *testing.T) {
	reg := telemetry.NewRegistry()
	subs := make([]*telemetry.Counter, 16)
	for f := range subs {
		subs[f] = reg.Counter(tsdb.MetricSubmittedByFunction, "Submitted.",
			"function", fmt.Sprintf("fn-%02d", f))
	}
	store := tsdb.New(tsdb.Config{})
	store.AddSource("", reg)
	ctl, err := forecast.NewController(forecast.ControllerConfig{
		Store:  store,
		Policy: forecast.Policy{Tick: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	tick := func() {
		for f, c := range subs {
			c.Add(float64(1 + (i+f)%3))
		}
		now := time.Duration(i+1) * time.Second
		store.Scrape(now)
		ctl.Tick(now)
		i++
	}
	for i < 2000 {
		tick()
	}
	if got := testing.AllocsPerRun(1000, tick); got > 20 {
		t.Fatalf("%v allocations per scrape and tick, want at most 20", got)
	}
}

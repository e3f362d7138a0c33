package cluster

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/gpio"
	"microfaas/internal/model"
	"microfaas/internal/node"
	"microfaas/internal/power"
	"microfaas/internal/powermgr"
	"microfaas/internal/telemetry"
	"microfaas/internal/workload"
)

// TestManagedSimEndToEnd drives a power-managed MicroFaaS simulation
// through the energy-aware policy and checks the whole plane hangs
// together: every job completes, the GPIO audit log stays monotone, wakes
// are amortized across jobs (far fewer PWR_BUT presses than the per-job
// policy's one per invocation), and the powered gauge agrees with the
// manager's snapshot.
func TestManagedSimEndToEnd(t *testing.T) {
	tel := telemetry.New()
	s, err := NewMicroFaaSSim(4, SimConfig{
		Seed:      1,
		Policy:    core.AssignEnergyAware,
		Power:     &powermgr.Policy{IdleTimeout: 10 * time.Second},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	fns := model.Functions()
	for i := 0; i < 68; i++ {
		s.Orch.Submit(fns[i%len(fns)].Name, nil)
	}
	s.Engine.RunAll()
	coll := s.Orch.Collector()
	if coll.Len() != 68 || coll.ErrorCount() != 0 {
		t.Fatalf("%d records, %d errors", coll.Len(), coll.ErrorCount())
	}
	presses := 0
	for _, id := range s.Orch.Workers() {
		presses += powerOns(s.GPIO, id)
	}
	if presses == 0 || presses >= coll.Len() {
		t.Fatalf("%d PWR_BUT presses for %d jobs; wake-on-demand should amortize boots", presses, coll.Len())
	}
	events := s.GPIO.Events()
	if len(events) == 0 {
		t.Fatal("no GPIO transitions recorded")
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("audit log went backwards: %v after %v", events[i], events[i-1])
		}
	}
	// The powered gauge (as a /metrics scrape would see it) and the
	// manager snapshot must agree.
	snap := s.PowerMgr.Snapshot()
	var exp bytes.Buffer
	if err := tel.Registry().WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParseText(&exp)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := samples.Value("microfaas_workers_powered"); !ok || int(v) != snap.Powered {
		t.Fatalf("workers_powered gauge = %v (ok=%v), snapshot says %d", v, ok, snap.Powered)
	}
	// Idle timers eventually gate every worker off.
	s.Engine.RunAll()
	if up := s.PowerMgr.PoweredUp(); up != 0 {
		t.Fatalf("%d workers still powered after idle timeout", up)
	}
	for _, id := range s.Orch.Workers() {
		if last, ok := lastEvent(s.GPIO, id); ok && last.To != power.Off {
			t.Fatalf("%s ended in state %v", id, last.To)
		}
	}
}

// TestManagedSimUsesLessEnergyAtLowLoad is the subsystem's reason to
// exist, checked at the cluster level: with sparse arrivals, idle
// power-down + wake-on-demand must spend fewer joules than keeping every
// worker on.
func TestManagedSimUsesLessEnergyAtLowLoad(t *testing.T) {
	run := func(cfg SimConfig) float64 {
		s, err := NewMicroFaaSSim(4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fns := model.Functions()
		// One job a minute for 20 minutes: mostly idle time.
		for i := 0; i < 20; i++ {
			at := time.Duration(i) * time.Minute
			fn := fns[i%len(fns)].Name
			s.Engine.Schedule(at, func() { s.Orch.Submit(fn, nil) })
		}
		s.Engine.Run(20 * time.Minute)
		s.Engine.RunAll()
		if got := s.Orch.Collector().Len(); got != 20 {
			t.Fatalf("completed %d of 20 jobs", got)
		}
		return float64(s.Meter.TotalEnergy(s.Engine.Now()))
	}
	managed := run(SimConfig{
		Seed:   7,
		Policy: core.AssignEnergyAware,
		Power:  &powermgr.Policy{IdleTimeout: 15 * time.Second},
	})
	alwaysOn := run(SimConfig{Seed: 7, BoardConfig: node.BoardConfig{DisableReboot: true}})
	if managed >= alwaysOn {
		t.Fatalf("managed cluster used %.1f J, always-on %.1f J", managed, alwaysOn)
	}
}

// TestManagedLiveSmoke exercises the live (wall-clock, TCP) managed path:
// workers start power-gated, an invocation wakes one, and Close drains
// without deadlock. Run with -race this covers the manager's real
// concurrency.
func TestManagedLiveSmoke(t *testing.T) {
	tel := telemetry.New()
	l, err := StartLive(LiveOptions{
		Workers:   2,
		Seed:      11,
		Meter:     true,
		Telemetry: tel,
		Policy:    core.AssignEnergyAware,
		Power:     &powermgr.Policy{IdleTimeout: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.PowerMgr == nil || l.GPIO == nil {
		t.Fatal("managed live cluster missing PowerMgr/GPIO")
	}
	if up := l.PowerMgr.PoweredUp(); up != 0 {
		t.Fatalf("%d workers powered before any work", up)
	}
	rng := rand.New(rand.NewSource(11))
	f, err := workload.Get("FloatOps")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		l.Orch.Submit(f.Name, f.GenArgs(rng))
	}
	l.Orch.Quiesce()
	if got := l.Orch.Collector().ErrorCount(); got != 0 {
		recs := l.Orch.Collector().Records()
		t.Fatalf("%d invocations failed (first err: %s)", got, recs[0].Err)
	}
	if up := l.PowerMgr.PoweredUp(); up == 0 {
		t.Fatal("no worker powered after invocations")
	}
	// The audit log must be monotone despite wall-clock concurrency.
	events := l.GPIO.Events()
	if len(events) == 0 {
		t.Fatal("no GPIO transitions recorded")
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("audit log went backwards: %v after %v", events[i], events[i-1])
		}
	}
}

// TestPowerPolicyRejectedOnConventionalSims pins the sim-vs-live split:
// the power plane models PWR_BUT wiring only SBCs have.
func TestPowerPolicyRejectedOnConventionalSims(t *testing.T) {
	pol := &powermgr.Policy{IdleTimeout: time.Second}
	if _, err := NewConventionalSim(4, SimConfig{Power: pol}); err == nil {
		t.Fatal("conventional sim accepted a power policy")
	}
	if _, err := NewConventionalRackSim(2, 4, SimConfig{Power: pol}); err == nil {
		t.Fatal("conventional rack sim accepted a power policy")
	}
	if _, err := NewMicroFaaSSim(4, SimConfig{Power: pol, BoardConfig: node.BoardConfig{DisableReboot: true}}); err == nil {
		t.Fatal("power policy combined with DisableReboot accepted")
	}
}

// TestBudgetExhaustedFunctionStopsWakingNodes pins the energy-first
// scheduling rule end to end: once a function spends its budget, the
// energy-aware policy queues its work on already-powered hardware instead
// of pulling more nodes out of power gating.
func TestBudgetExhaustedFunctionStopsWakingNodes(t *testing.T) {
	fn := model.Functions()[0].Name
	run := func(budget float64) *Sim {
		s, err := NewMicroFaaSSim(2, SimConfig{
			Seed:   3,
			Policy: core.AssignEnergyAware,
			Power:  &powermgr.Policy{IdleTimeout: 10 * time.Minute},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Orch.SetEnergyBudget(fn, budget) // 0 sets none
		// One warm-up job wakes sbc-000 (and, with any budget present,
		// exhausts it — a single ARM cycle burns a few joules).
		s.Orch.Submit(fn, nil)
		s.Engine.RunAll()
		// Two concurrent jobs: the first lands on the idle powered node,
		// the second must choose between waking sbc-001 and queueing.
		s.Orch.Submit(fn, nil)
		s.Orch.Submit(fn, nil)
		s.Engine.RunAll()
		if got := s.Orch.Collector().Len(); got != 3 {
			t.Fatalf("completed %d of 3 jobs", got)
		}
		return s
	}

	free := run(0)
	if boots := powerOns(free.GPIO, "sbc-001"); boots == 0 {
		t.Fatal("without budgets, concurrent load should wake the second node")
	}
	capped := run(0.1)
	if bs := capped.Orch.EnergyBudgets(); len(bs) != 1 || !bs[0].Exhausted {
		t.Fatalf("budget not exhausted after warm-up: %+v", bs)
	}
	if boots := powerOns(capped.GPIO, "sbc-001"); boots != 0 {
		t.Fatalf("exhausted function woke the second node %d times; want 0 (queue on powered hardware)", boots)
	}
}

// powerOns counts node's PWR_BUT presses in c's log: its transitions out
// of Off.
func powerOns(c *gpio.Controller, node string) int {
	n := 0
	for _, e := range c.Events() {
		if e.Node == node && e.From == power.Off {
			n++
		}
	}
	return n
}

// lastEvent returns node's most recent transition in c's log.
func lastEvent(c *gpio.Controller, node string) (last gpio.Event, ok bool) {
	for _, e := range c.Events() {
		if e.Node == node {
			last, ok = e, true
		}
	}
	return last, ok
}

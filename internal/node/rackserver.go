// Package node implements the cluster's worker nodes in both execution
// modes: discrete-event simulated SBC and microVM workers (with a
// processor-sharing rack-server contention model), and live TCP workers
// that execute the real Go workload functions.
//
// Simulated workers are built in bulk: NewSimWorkers builds a cluster's
// shard of boards in one call, validating their config once and sharing
// one read-only copy of it, with the workers, their meter devices and
// their GPIO pins each cut from one slab. A board binds no callbacks: the
// batch registers its phase handlers (boot done, exec done, keep-warm
// expiry) with the engine once, and a board's phases are typed sim events
// that target its index in the slab.
package node

import (
	"fmt"
	"math"
	"time"

	"microfaas/internal/power"
	"microfaas/internal/sim"
)

// RackServer models the conventional cluster's host: a fixed number of
// cores shared by its VMs under processor sharing, plus the utilization-
// dependent power draw of internal/power.ServerModel.
//
// Each VM phase (boot, job) is a cpu task with a total CPU work amount and
// a maximum consumption rate ("demand", at most one core for a 1-vCPU VM).
// While total demand fits in the cores, every task runs at its demand and
// wall time equals the calibrated uncontended duration; past saturation,
// all tasks slow proportionally — which produces Fig 4's throughput
// plateau without any further tuning.
type RackServer struct {
	id     string
	cores  float64
	engine *sim.Engine
	meter  *power.Meter
	model  power.ServerModel

	// tasks holds the running tasks in admission order. A slice, not a
	// map: rebalance sums demand and (re)schedules completion events while
	// iterating, so randomized map order would perturb the float sum's
	// last ULP and the engine's same-instant seq tiebreaks from run to
	// run, breaking bit-exact determinism.
	tasks      []*cpuTask
	lastUpdate time.Duration
}

type cpuTask struct {
	demand    float64 // max rate in cores
	remaining float64 // cpu-seconds left
	rate      float64 // current rate in cores
	done      sim.Kind
	target    int32 // done's target
	event     sim.Timer
}

// NewRackServer registers the server with the meter (it idles immediately).
func NewRackServer(id string, cores int, engine *sim.Engine, meter *power.Meter, model power.ServerModel) *RackServer {
	if cores <= 0 {
		panic(fmt.Sprintf("node: rack server needs cores, got %d", cores))
	}
	rs := &RackServer{
		id:     id,
		cores:  float64(cores),
		engine: engine,
		meter:  meter,
		model:  model,
	}
	if meter != nil {
		meter.Set(id, model.Power(0), engine.Now())
	}
	return rs
}

// Run schedules a CPU task of cpuSeconds total work consumed at up to
// demand cores; the engine's handler done runs on target when the work
// completes, called by the completion itself. A task with no CPU work
// completes after a zero-length event (still asynchronously).
func (rs *RackServer) Run(cpuSeconds, demand float64, done sim.Kind, target int32) {
	if cpuSeconds < 0 || demand <= 0 {
		panic(fmt.Sprintf("node: bad cpu task (%v cpu-s at %v cores)", cpuSeconds, demand))
	}
	if cpuSeconds == 0 {
		rs.engine.ScheduleKind(0, done, target)
		return
	}
	rs.advance()
	t := &cpuTask{demand: demand, remaining: cpuSeconds, done: done, target: target}
	rs.tasks = append(rs.tasks, t)
	rs.rebalance()
}

// advance banks progress for all running tasks up to now.
func (rs *RackServer) advance() {
	now := rs.engine.Now()
	dt := (now - rs.lastUpdate).Seconds()
	if dt > 0 {
		for _, t := range rs.tasks {
			t.remaining -= t.rate * dt
			if t.remaining < 0 {
				t.remaining = 0
			}
		}
	}
	rs.lastUpdate = now
}

// rebalance recomputes per-task rates, reschedules completion events, and
// updates the power meter. Call only after advance().
func (rs *RackServer) rebalance() {
	demand := 0.0
	for _, t := range rs.tasks {
		demand += t.demand
	}
	scale := 1.0
	if demand > rs.cores {
		scale = rs.cores / demand
	}
	for _, t := range rs.tasks {
		t.rate = t.demand * scale
		t.event.Cancel()
		eta := time.Duration(t.remaining / t.rate * float64(time.Second))
		t.event = rs.engine.Schedule(eta, func() { rs.complete(t) })
	}
	if rs.meter != nil {
		util := math.Min(demand, rs.cores) / rs.cores
		rs.meter.Set(rs.id, rs.model.Power(util), rs.engine.Now())
	}
}

func (rs *RackServer) complete(t *cpuTask) {
	rs.advance()
	for i, cur := range rs.tasks {
		if cur == t {
			rs.tasks = append(rs.tasks[:i], rs.tasks[i+1:]...)
			break
		}
	}
	rs.rebalance()
	rs.engine.Dispatch(t.done, t.target)
}

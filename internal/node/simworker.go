package node

import (
	"fmt"
	"sync"
	"time"

	"microfaas/internal/bootos"
	"microfaas/internal/core"
	"microfaas/internal/gpio"
	"microfaas/internal/model"
	"microfaas/internal/netsim"
	"microfaas/internal/power"
	"microfaas/internal/sim"
	"microfaas/internal/telemetry"
)

// BoardConfig is a simulated board beyond its platform and the cluster it
// is wired into: its link, its boot, its power policy between jobs, and
// the faults injected into it. SimWorkerConfig embeds it, and so does
// cluster.SimConfig, which hands it to every board whole.
type BoardConfig struct {
	// Link is the board's last-hop network; defaults to the paper's
	// evaluation link for the platform (Fast Ethernet / bridged virtio).
	// The GigE-NIC ablation overrides it.
	Link *netsim.Link
	// BootTime overrides the worker-OS boot duration (default: the
	// bootos final profile for the platform; the boot-stage ablation
	// passes intermediate stages).
	BootTime time.Duration
	// DisableReboot is the no-reboot ablation: after the first job the
	// worker stays up and skips the boot phase (sacrificing the clean-
	// environment guarantee of Sec III-a).
	DisableReboot bool
	// KeepWarm keeps the worker booted and idle (drawing idle power) for
	// this long after a job, so a prompt next job skips the boot. This is
	// the Firecracker-style warm-pool trade the paper's design refuses:
	// it cuts latency but sacrifices both the clean-environment guarantee
	// and some energy proportionality. Zero (the paper's policy) powers
	// down immediately. Ignored when DisableReboot is set (always warm).
	KeepWarm time.Duration
	// Faults injects worker faults (the zero value injects none).
	Faults FaultPolicy
}

// SimWorkerConfig assembles discrete-event workers: every worker one
// NewSimWorkers call builds shares it, and the call names each.
type SimWorkerConfig struct {
	// Platform selects ARM (SBC) or X86 (microVM).
	Platform model.Platform
	// BoardConfig is each worker's link, boot, power policy and faults.
	BoardConfig
	// Engine drives virtual time (required).
	Engine *sim.Engine
	// Meter receives power accounting; optional. VM workers do not report
	// to the meter themselves — their host RackServer does.
	Meter *power.Meter
	// Server hosts X86 workers; required for X86, must be nil for ARM.
	Server *RackServer
	// Jitter is the half-width of the uniform relative perturbation
	// applied to each phase duration (e.g. 0.05 → ±5 %).
	Jitter float64
	// Functions is the function table the worker runs, shared by every
	// worker of a cluster (default: one table of model.Functions() shared
	// by every worker that names none). Ablations (crypto accelerator)
	// pass a table built from modified specs.
	Functions *FunctionTable
	// GPIO, when set, wires this worker's PWR_BUT to the OP's GPIO
	// controller (Sec IV-D) and logs every power-state transition there.
	// ARM workers only (the paper wires only the worker SBCs).
	GPIO *gpio.Controller
	// Managed hands the worker's power lifecycle to a powermgr.Manager:
	// the worker implements powermgr.Node (PowerUp boots it over the
	// modeled boot time, PowerDown gates it off), stays idle-warm between
	// jobs instead of power-cycling, and skips the in-job boot when warm
	// — the manager's wake already paid it, absorbed into the job's queue
	// wait. ARM only; mutually exclusive with DisableReboot and KeepWarm.
	Managed bool
	// Telemetry optionally receives boot and fault-injection counters
	// and — for metered ARM workers — the per-function joules
	// attribution. Nil disables all of it with zero overhead and leaves
	// seeded runs bit-identical.
	Telemetry *telemetry.Telemetry
}

// FunctionTable is the immutable function table of a simulated cluster:
// each function's calibration spec and the canned output a finished job
// returns, stored in table order behind one name→entry map. A cluster
// builds it once and every worker holds the same pointer, so a board
// costs nothing per function.
type FunctionTable struct {
	byName map[string]*simFunction
}

// simFunction is one table entry.
type simFunction struct {
	spec model.FunctionSpec
	// output is the simulated payload. It depends only on the function
	// name, so one never-mutated []byte serves every job of every worker.
	output []byte
}

// NewFunctionTable builds a table from specs. A name listed twice keeps
// its last spec.
func NewFunctionTable(specs []model.FunctionSpec) *FunctionTable {
	fns := make([]simFunction, len(specs))
	t := &FunctionTable{byName: make(map[string]*simFunction, len(specs))}
	for i, s := range specs {
		fns[i] = simFunction{spec: s, output: []byte(fmt.Sprintf(`{"simulated":true,"function":%q}`, s.Name))}
		t.byName[s.Name] = &fns[i]
	}
	return t
}

// defaultFunctions is Table I as one table, built on first use, for every
// worker whose config names no table.
var defaultFunctions = sync.OnceValue(func() *FunctionTable { return NewFunctionTable(model.Functions()) })

// SimWorker is a discrete-event worker node implementing core.Worker. It
// holds handles into state its cluster builds once — its batch's shared
// config, the function table, its meter device, its GPIO pin — and the
// state of the one job it runs.
type SimWorker struct {
	// simSpec is the config and the constants derived from it, shared
	// read-only with every worker built in the same NewSimWorkers call.
	*simSpec
	id string
	// dev is the worker's meter handle, taken once at construction; nil
	// unless this is a metered ARM worker (a microVM's host reports for it).
	dev *power.Device
	// pin is the worker's PWR_BUT line on the OP's GPIO header; nil
	// unless a controller is attached.
	pin  *gpio.Pin
	warm bool // booted state survives to the next job
	// idx is the worker's index in its batch's slab, the target of its
	// phase events.
	idx       int32
	state     power.State // current power state (ARM accounting)
	hangs     int         // injected wedges (jobs that never reported back)
	coldStart int         // jobs that paid the boot
	warmStart int         // jobs that skipped it
	powerOff  sim.Timer   // pending keep-warm expiry (zero when none)
	m         workerMetrics
	// job is the job in flight. Core hands a worker its next job only
	// after the last one's done fired (even when its deadline fired
	// first), so one record per worker suffices, and its phases are typed
	// events on the worker's index: running a job allocates nothing.
	job simJob
}

// simSpec is what the workers of one NewSimWorkers call share: the
// validated config and the link, power model and boot time every one of
// them derives from it, and the engine event kinds of their phases (boot
// done, exec done, keep-warm expiry), registered once for the batch.
type simSpec struct {
	cfg                       SimWorkerConfig
	link                      netsim.Link
	sbc                       power.SBCModel
	boot                      time.Duration
	booted, executed, expired sim.Kind
}

// simJob is the state of a worker's job in flight, from RunJob to done.
type simJob struct {
	job                  core.Job
	done                 func(core.Result)
	fn                   *simFunction
	started              time.Duration
	boot, overhead, exec time.Duration
	fail                 bool
	// energyStart is the meter's reading when the job started, and bootJ
	// the joules its boot drew (metered ARM boards only).
	energyStart power.Joules
	bootJ       float64
}

// NewSimWorkers builds one worker per id — the worker's and its meter
// device's name, e.g. "sbc-03" — in ids' order: meter devices register
// and GPIO pins number in that order, and ARM workers start powered down.
// The config is validated once and shared read-only by the batch, the
// workers, their meter handles and their pins come from one slab each, and
// the batch registers its phase handlers with the engine once, each
// addressing a worker by its slab index: a cluster builds a shard of
// boards in a few allocations, none of them a board's own. A batch of one
// is a one-off worker.
func NewSimWorkers(cfg SimWorkerConfig, ids []string) ([]*SimWorker, error) {
	for _, id := range ids {
		if id == "" {
			return nil, fmt.Errorf("node: worker needs an id")
		}
	}
	if len(ids) == 0 {
		return nil, nil
	}
	name := ids[0] // a config error stops the batch at its first worker
	if cfg.Engine == nil {
		return nil, fmt.Errorf("node: worker %s needs an engine", name)
	}
	if cfg.Platform == model.X86 && cfg.Server == nil {
		return nil, fmt.Errorf("node: VM worker %s needs a rack server", name)
	}
	if cfg.Platform == model.ARM && cfg.Server != nil {
		return nil, fmt.Errorf("node: SBC worker %s cannot have a rack server", name)
	}
	if cfg.Platform == model.X86 && cfg.GPIO != nil {
		return nil, fmt.Errorf("node: worker %s: GPIO power control wires worker SBCs only", name)
	}
	if cfg.Managed {
		if cfg.Platform != model.ARM {
			return nil, fmt.Errorf("node: worker %s: power management gates worker SBCs only", name)
		}
		if cfg.DisableReboot || cfg.KeepWarm > 0 {
			return nil, fmt.Errorf("node: worker %s: Managed excludes DisableReboot/KeepWarm (the manager owns the power policy)", name)
		}
	}
	if cfg.Functions == nil {
		cfg.Functions = defaultFunctions()
	}
	spec := &simSpec{cfg: cfg, sbc: power.DefaultSBCModel(), boot: cfg.BootTime}
	if cfg.Link != nil {
		spec.link = *cfg.Link
	} else {
		spec.link = model.DefaultWorkerLink(cfg.Platform)
	}
	if spec.boot <= 0 {
		spec.boot = bootos.BootTime(cfg.Platform)
	}
	var devs []*power.Device
	if cfg.Platform == model.ARM && cfg.Meter != nil {
		devs = cfg.Meter.Devices(ids)
	}
	var pins []*gpio.Pin
	if cfg.GPIO != nil {
		var err error
		if pins, err = cfg.GPIO.Wire(ids); err != nil {
			return nil, err
		}
	}
	slab := make([]SimWorker, len(ids))
	if cfg.Platform == model.ARM {
		spec.booted = cfg.Engine.Register(func(i int32) { slab[i].armBooted() })
	} else {
		spec.booted = cfg.Engine.Register(func(i int32) { slab[i].vmExec() })
	}
	spec.executed = cfg.Engine.Register(func(i int32) { slab[i].finish() })
	if cfg.KeepWarm > 0 {
		spec.expired = cfg.Engine.Register(func(i int32) { slab[i].keepWarmExpired() })
	}
	fam := newWorkerFamilies(cfg.Telemetry)
	ws := make([]*SimWorker, len(ids))
	for i, id := range ids {
		w := &slab[i]
		w.simSpec, w.id, w.state, w.idx = spec, id, power.Off, int32(i)
		w.m = fam.worker(id)
		if devs != nil {
			w.dev = devs[i]
			w.dev.Set(w.sbc.Power(power.Off), cfg.Engine.Now())
		}
		if pins != nil {
			w.pin = pins[i]
		}
		ws[i] = w
	}
	return ws, nil
}

// setState moves an ARM worker to a new power state, updating the meter
// and the GPIO controller's audit log with the cause and the job that
// caused it (gpio.NoJob for none).
func (w *SimWorker) setState(to power.State, cause string, job int64) {
	if w.cfg.Platform != model.ARM || to == w.state {
		return
	}
	now := w.cfg.Engine.Now()
	if w.dev != nil {
		w.dev.Set(w.sbc.Power(to), now)
	}
	if w.pin != nil {
		if err := w.pin.Transition(now, w.state, to, cause, job); err != nil {
			// Wiring and ordering are established at construction; a
			// failure here is a programming error in the simulation.
			panic(err)
		}
	}
	w.state = to
}

// ID implements core.Worker.
func (w *SimWorker) ID() string { return w.id }

// Hangs returns how many injected wedges the worker has suffered.
func (w *SimWorker) Hangs() int { return w.hangs }

// jitter returns a multiplicative perturbation factor in
// [1-Jitter, 1+Jitter], drawn from the engine's deterministic source.
func (w *SimWorker) jitter() float64 {
	if w.cfg.Jitter <= 0 {
		return 1
	}
	return 1 + (w.cfg.Engine.Rand().Float64()*2-1)*w.cfg.Jitter
}

func perturb(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// RunJob implements core.Worker: power-on, boot, receive input, execute,
// return result, power down. All timing comes from the calibrated model.
func (w *SimWorker) RunJob(job core.Job, done func(core.Result)) {
	engine := w.cfg.Engine
	fn, ok := w.cfg.Functions.byName[job.Function]
	if !ok {
		engine.Schedule(0, func() {
			done(core.Result{
				Job: job, WorkerID: w.id,
				Err:        fmt.Sprintf("node: unknown function %q", job.Function),
				StartedAt:  engine.Now(),
				FinishedAt: engine.Now(),
			})
		})
		return
	}
	boot := perturb(w.boot, w.jitter())
	if w.warm && (w.cfg.DisableReboot || w.cfg.KeepWarm > 0 || w.cfg.Managed) {
		boot = 0
	}
	w.powerOff.Cancel()
	w.powerOff = sim.Timer{}
	if boot == 0 {
		w.warmStart++
		w.m.bootsWarm.Inc()
	} else {
		w.coldStart++
		w.m.bootsCold.Inc()
	}
	overhead := perturb(fn.spec.OverheadTime(w.cfg.Platform, w.link), w.jitter())
	exec := perturb(fn.spec.ExecTime(w.cfg.Platform, w.link), w.jitter())
	f := &w.cfg.Faults
	fail := f.ErrorProb > 0 && engine.Rand().Float64() < f.ErrorProb
	if fail {
		// The fault strikes partway through execution; the OP sees a dead
		// worker and records the attempt as failed.
		exec = time.Duration(float64(exec) * engine.Rand().Float64())
		w.m.faultCrash.Inc()
	}
	if hang := f.HangProb > 0 && engine.Rand().Float64() < f.HangProb; hang {
		// The worker wedges mid-job: it powers on, draws busy power, and
		// never invokes done. Only an OP deadline can reclaim the job.
		w.hangs++
		w.m.faultHang.Inc()
		w.warm = false
		w.setState(power.Busy, "wedged", job.ID)
		return
	}
	if slow := f.SlowProb > 0 && engine.Rand().Float64() < f.SlowProb; slow {
		factor := f.SlowFactor
		if factor <= 0 {
			factor = 10
		}
		exec = time.Duration(float64(exec) * factor)
		w.m.faultSlow.Inc()
	}
	w.job = simJob{
		job: job, done: done, fn: fn, started: engine.Now(),
		boot: boot, overhead: overhead, exec: exec, fail: fail,
	}
	// Per-function energy: snapshot the meter now, bank the delta when the
	// job finishes. Only metered ARM workers attribute joules — an X86
	// microVM is not a metered device, its host rack server is.
	if w.dev != nil {
		w.job.energyStart = w.dev.Energy(w.job.started)
	}
	if w.cfg.Platform == model.ARM {
		w.runARM()
	} else {
		w.runX86()
	}
}

// finish ends the job in flight: the post-job power policy, the result and
// the energy charge, then done. The record is cleared before done runs,
// because done may hand this worker its next job.
func (w *SimWorker) finish() {
	j := &w.job
	now := w.cfg.Engine.Now()
	switch {
	case j.fail && w.cfg.Managed:
		// The environment is suspect but the manager owns the power
		// plane: go cold-idle and let the orchestrator's NoteFault
		// power-cycle the node through the manager.
		w.warm = false
		w.setState(power.Idle, "fault: awaiting power-cycle", gpio.NoJob)
	case j.fail:
		// A crashed worker cannot be trusted warm: the OP power-cycles
		// it regardless of the keep-warm/no-reboot policy.
		w.warm = false
		w.setState(power.Off, "fault: forced power-off", gpio.NoJob)
	default:
		w.afterJob()
	}
	res := core.Result{
		Job: j.job, WorkerID: w.id,
		Output:     j.fn.output,
		StartedAt:  j.started,
		FinishedAt: now,
		Boot:       j.boot,
		Overhead:   j.overhead,
		Exec:       j.exec,
		BootJoules: j.bootJ,
	}
	if j.fail {
		res.Err = "node: injected worker fault"
		res.Output = nil
	}
	if w.dev != nil {
		// Crashed attempts are charged too: the joules were burned on
		// this function's behalf even if the result was lost. The
		// result carries the joules so the orchestrator can account
		// them against the function's energy budget.
		delta := w.dev.Energy(now) - j.energyStart
		res.Joules = float64(delta)
		w.m.energy(j.job.Function).Add(float64(delta))
	}
	done := j.done
	*j = simJob{}
	done(res)
}

// afterJob applies the worker's post-job power policy: the paper's
// immediate power-down, DisableReboot's stay-up, KeepWarm's bounded idle
// window that expires into power-off, or Managed's stay-warm-idle (the
// power manager decides when the node actually powers off).
func (w *SimWorker) afterJob() {
	switch {
	case w.cfg.Managed:
		w.warm = true
		w.setState(power.Idle, "job done (managed idle)", gpio.NoJob)
	case w.cfg.DisableReboot:
		w.warm = true
		w.setState(power.Idle, "job done (no-reboot ablation)", gpio.NoJob)
	case w.cfg.KeepWarm > 0:
		w.warm = true
		w.setState(power.Idle, "job done (parked warm)", gpio.NoJob)
		w.powerOff = w.cfg.Engine.ScheduleKind(w.cfg.KeepWarm, w.expired, w.idx)
	default: // the paper's policy
		w.warm = false
		w.setState(power.Off, "job done (power down)", gpio.NoJob)
	}
}

// keepWarmExpired closes a KeepWarm window: the parked worker powers off.
func (w *SimWorker) keepWarmExpired() {
	w.warm = false
	w.powerOff = sim.Timer{}
	w.setState(power.Off, "keep-warm window expired", gpio.NoJob)
}

// PowerUp implements powermgr.Node (managed mode): Off→Booting now,
// Booting→Idle (warm) after the worker's jittered boot time on the
// virtual clock, then ready fires on the engine thread. A node that is
// not Off boots nothing; ready is still scheduled (never synchronously —
// the manager may call PowerUp while holding locks the callback retakes).
// cause and job go to the GPIO log as the Off→Booting transition's cause.
func (w *SimWorker) PowerUp(cause string, job int64, ready func()) {
	engine := w.cfg.Engine
	if w.state != power.Off {
		if ready != nil {
			engine.Schedule(0, ready)
		}
		return
	}
	w.m.bootsCold.Inc()
	w.setState(power.Booting, cause, job)
	engine.Schedule(perturb(w.boot, w.jitter()), func() {
		w.warm = true
		w.setState(power.Idle, "boot complete (managed)", gpio.NoJob)
		if ready != nil {
			ready()
		}
	})
}

// PowerDown implements powermgr.Node (managed mode): an Idle node goes
// Off (cold), logging the transition to the meter and the GPIO audit log;
// a Busy or Booting node refuses and reports false. Powering an Off node
// down is a true no-op.
func (w *SimWorker) PowerDown(cause string) bool {
	switch w.state {
	case power.Busy, power.Booting:
		return false
	case power.Off:
		return true
	}
	w.warm = false
	w.setState(power.Off, cause, gpio.NoJob)
	return true
}

// ColdStarts and WarmStarts report how many jobs paid the boot versus
// skipped it (always cold under the paper's policy).
func (w *SimWorker) ColdStarts() int { return w.coldStart }

// WarmStarts reports boot-skipping job starts (keep-warm / no-reboot).
func (w *SimWorker) WarmStarts() int { return w.warmStart }

// runARM chains the SBC's phases on the engine; nothing contends, so each
// phase is a plain delay with the right meter state.
func (w *SimWorker) runARM() {
	j := &w.job
	engine := w.cfg.Engine
	if j.boot > 0 {
		w.setState(power.Booting, "PWR_BUT press", j.job.ID)
		engine.ScheduleKind(j.boot, w.booted, w.idx)
		return
	}
	// Warm start: already booted, straight to work.
	w.setState(power.Busy, "warm start", j.job.ID)
	engine.ScheduleKind(j.overhead+j.exec, w.executed, w.idx)
}

// armBooted ends an SBC's cold boot, reading the joules it drew off the
// meter, and starts its execution.
func (w *SimWorker) armBooted() {
	j := &w.job
	bootEnd := w.cfg.Engine.Now()
	if w.dev != nil {
		j.bootJ = float64(w.dev.Energy(bootEnd) - j.energyStart)
	}
	w.setState(power.Busy, "boot complete", j.job.ID)
	w.cfg.Engine.ScheduleKind(j.overhead+j.exec, w.executed, w.idx)
}

// runX86 runs the microVM's phases as rack-server CPU tasks: wall time
// stretches when the host's cores are oversubscribed.
func (w *SimWorker) runX86() {
	j := &w.job
	if j.boot == 0 {
		w.vmExec()
		return
	}
	bootDemand := bootos.BootCPUFraction(model.X86)
	w.cfg.Server.Run(float64(j.boot)/float64(time.Second)*bootDemand, bootDemand, w.booted, w.idx)
}

// vmExec queues the microVM's overhead and execution on its host.
func (w *SimWorker) vmExec() {
	j := &w.job
	jobWall := j.overhead + j.exec
	// Demand so that uncontended wall time equals the calibrated total.
	demand := float64(j.fn.spec.CPUTime(model.X86)) / float64(jobWall)
	if demand > 1 {
		demand = 1 // a 1-vCPU microVM cannot exceed one core
	}
	w.cfg.Server.Run(demand*jobWall.Seconds(), demand, w.executed, w.idx)
}

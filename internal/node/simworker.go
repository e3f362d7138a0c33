package node

import (
	"fmt"
	"strconv"
	"time"

	"microfaas/internal/bootos"
	"microfaas/internal/core"
	"microfaas/internal/gpio"
	"microfaas/internal/model"
	"microfaas/internal/netsim"
	"microfaas/internal/power"
	"microfaas/internal/sim"
	"microfaas/internal/telemetry"
	"microfaas/internal/tracing"
)

// SimWorkerConfig assembles a discrete-event worker.
type SimWorkerConfig struct {
	// ID is the worker's (and meter device's) name, e.g. "sbc-03".
	ID string
	// Platform selects ARM (SBC) or X86 (microVM).
	Platform model.Platform
	// Link is the worker's last-hop network; defaults to the paper's
	// evaluation link for the platform (Fast Ethernet / bridged virtio).
	Link *netsim.Link
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
	// BootTime overrides the worker-OS boot duration (default: the
	// bootos final profile for the platform).
	BootTime time.Duration
	// Specs overrides the function table (default: model.Functions()).
	// Ablations (crypto accelerator, GigE NIC, no-reboot) pass modified
	// copies here.
	Specs []model.FunctionSpec
	// DisableReboot is the no-reboot ablation: after the first job the
	// worker stays up and skips the boot phase (sacrificing the clean-
	// environment guarantee of Sec III-a).
	DisableReboot bool
	// FailureRate injects faults: each job independently fails with this
	// probability, crashing partway through execution (the OP's retry
	// policy is exercised against it). Zero disables injection.
	FailureRate float64
	// HangRate injects wedges: each job independently hangs with this
	// probability — the worker powers on and never reports back, so only
	// an OP-level deadline can rescue the job. Zero disables injection.
	HangRate float64
	// SlowRate injects straggling: each job independently runs SlowFactor
	// times slower with this probability (tail-latency and deadline
	// experiments). Zero disables injection.
	SlowRate float64
	// SlowFactor is the execution-time multiplier for SlowRate jobs
	// (default 10).
	SlowFactor float64
	// GPIO, when set, wires this worker's PWR_BUT to the OP's GPIO
	// controller (Sec IV-D) and logs every power-state transition there.
	// ARM workers only (the paper wires only the worker SBCs).
	GPIO *gpio.Controller
	// KeepWarm keeps the worker booted and idle (drawing idle power) for
	// this long after a job, so a prompt next job skips the boot. This is
	// the Firecracker-style warm-pool trade the paper's design refuses:
	// it cuts latency but sacrifices both the clean-environment guarantee
	// and some energy proportionality. Zero (the paper's policy) powers
	// down immediately. Ignored when DisableReboot is set (always warm).
	KeepWarm time.Duration
	// Managed hands the worker's power lifecycle to a powermgr.Manager:
	// the worker implements powermgr.Node (PowerUp boots it over the
	// modeled boot time, PowerDown gates it off), stays idle-warm between
	// jobs instead of power-cycling, and skips the in-job boot when warm
	// — the manager's wake already paid it, absorbed into the job's queue
	// wait. ARM only; mutually exclusive with DisableReboot and KeepWarm.
	Managed bool
	// Telemetry optionally receives boot/exec lifecycle events, boot and
	// fault-injection counters, and — for metered ARM workers — the
	// per-function joules attribution. Nil disables all of it with zero
	// overhead and leaves seeded runs bit-identical.
	Telemetry *telemetry.Telemetry
	// Tracer optionally records per-invocation boot/exec/reboot spans,
	// with per-span joules from meter snapshots at the span boundaries on
	// metered ARM workers. Nil disables with the same bit-identical
	// guarantee as Telemetry.
	Tracer *tracing.Tracer
}

// SimWorker is a discrete-event worker node implementing core.Worker.
type SimWorker struct {
	cfg SimWorkerConfig
	// dev is the worker's meter handle, taken once at construction; nil
	// unless this is a metered ARM worker (a microVM's host reports for it).
	dev       *power.Device
	link      netsim.Link
	sbc       power.SBCModel
	boot      time.Duration
	specs     map[string]model.FunctionSpec
	outputs   map[string][]byte // per-function canned payloads (read-only)
	warm      bool              // booted state survives to the next job
	state     power.State       // current power state (ARM accounting)
	hangs     int               // injected wedges (jobs that never reported back)
	coldStart int               // jobs that paid the boot
	warmStart int               // jobs that skipped it
	powerOff  sim.Timer         // pending keep-warm expiry (zero when none)
	m         workerMetrics
}

// NewSimWorker validates the config and registers the worker with the
// meter (ARM workers start powered down).
func NewSimWorker(cfg SimWorkerConfig) (*SimWorker, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("node: worker needs an id")
	}
	if cfg.Engine == nil {
		return nil, fmt.Errorf("node: worker %s needs an engine", cfg.ID)
	}
	if cfg.Platform == model.X86 && cfg.Server == nil {
		return nil, fmt.Errorf("node: VM worker %s needs a rack server", cfg.ID)
	}
	if cfg.Platform == model.ARM && cfg.Server != nil {
		return nil, fmt.Errorf("node: SBC worker %s cannot have a rack server", cfg.ID)
	}
	w := &SimWorker{cfg: cfg, sbc: power.DefaultSBCModel()}
	if cfg.Link != nil {
		w.link = *cfg.Link
	} else {
		w.link = model.DefaultWorkerLink(cfg.Platform)
	}
	if cfg.BootTime > 0 {
		w.boot = cfg.BootTime
	} else {
		w.boot = bootos.BootTime(cfg.Platform)
	}
	specs := cfg.Specs
	if specs == nil {
		specs = model.Functions()
	}
	w.specs = make(map[string]model.FunctionSpec, len(specs))
	w.outputs = make(map[string][]byte, len(specs))
	for _, s := range specs {
		w.specs[s.Name] = s
		// The simulated payload depends only on the function name, so one
		// shared, never-mutated []byte per function serves every job.
		w.outputs[s.Name] = []byte(fmt.Sprintf(`{"simulated":true,"function":%q}`, s.Name))
	}
	if cfg.Platform == model.X86 && cfg.GPIO != nil {
		return nil, fmt.Errorf("node: worker %s: GPIO power control wires worker SBCs only", cfg.ID)
	}
	if cfg.Managed {
		if cfg.Platform != model.ARM {
			return nil, fmt.Errorf("node: worker %s: power management gates worker SBCs only", cfg.ID)
		}
		if cfg.DisableReboot || cfg.KeepWarm > 0 {
			return nil, fmt.Errorf("node: worker %s: Managed excludes DisableReboot/KeepWarm (the manager owns the power policy)", cfg.ID)
		}
	}
	w.m = newWorkerMetrics(cfg.Telemetry, cfg.ID)
	w.state = power.Off
	if cfg.Platform == model.ARM && cfg.Meter != nil {
		w.dev = cfg.Meter.Device(cfg.ID)
		w.dev.Set(w.sbc.Power(power.Off), cfg.Engine.Now())
	}
	if cfg.GPIO != nil {
		if _, err := cfg.GPIO.WireNext(cfg.ID); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// setState moves an ARM worker to a new power state, updating the meter
// and the GPIO controller's audit log.
func (w *SimWorker) setState(to power.State, cause string) {
	if w.cfg.Platform != model.ARM || to == w.state {
		return
	}
	now := w.cfg.Engine.Now()
	if w.dev != nil {
		w.dev.Set(w.sbc.Power(to), now)
	}
	if w.cfg.GPIO != nil {
		if err := w.cfg.GPIO.Transition(w.cfg.ID, now, w.state, to, cause); err != nil {
			// Wiring and ordering are established at construction; a
			// failure here is a programming error in the simulation.
			panic(err)
		}
	}
	w.state = to
}

// setStateJob is setState with a lazily built "<prefix> (job <id>)" cause:
// the string is only materialized when a GPIO audit log will record it,
// and via strconv instead of fmt — these transitions run several times per
// simulated job, and fmt's reflection dominated the sim's alloc profile.
func (w *SimWorker) setStateJob(to power.State, prefix string, jobID int64) {
	if w.cfg.Platform != model.ARM || to == w.state {
		return
	}
	var cause string
	if w.cfg.GPIO != nil {
		var arr [64]byte
		buf := append(arr[:0], prefix...)
		buf = append(buf, " (job "...)
		buf = strconv.AppendInt(buf, jobID, 10)
		buf = append(buf, ')')
		cause = string(buf)
	}
	w.setState(to, cause)
}

// ID implements core.Worker.
func (w *SimWorker) ID() string { return w.cfg.ID }

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
	spec, ok := w.specs[job.Function]
	if !ok {
		engine.Schedule(0, func() {
			done(core.Result{
				Job: job, WorkerID: w.cfg.ID,
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
	overhead := perturb(spec.OverheadTime(w.cfg.Platform, w.link), w.jitter())
	exec := perturb(spec.ExecTime(w.cfg.Platform, w.link), w.jitter())
	fail := w.cfg.FailureRate > 0 && engine.Rand().Float64() < w.cfg.FailureRate
	if fail {
		// The fault strikes partway through execution; the OP sees a dead
		// worker and records the attempt as failed.
		exec = time.Duration(float64(exec) * engine.Rand().Float64())
		w.m.faultCrash.Inc()
	}
	if hang := w.cfg.HangRate > 0 && engine.Rand().Float64() < w.cfg.HangRate; hang {
		// The worker wedges mid-job: it powers on, draws busy power, and
		// never invokes done. Only an OP deadline can reclaim the job.
		w.hangs++
		w.m.faultHang.Inc()
		recordSpan(w.cfg.Tracer, job, tracing.PhaseFault, w.cfg.ID,
			engine.Now(), engine.Now(), 0, "injected-hang", "node: injected worker hang")
		w.warm = false
		w.setStateJob(power.Busy, "wedged", job.ID)
		return
	}
	if slow := w.cfg.SlowRate > 0 && engine.Rand().Float64() < w.cfg.SlowRate; slow {
		factor := w.cfg.SlowFactor
		if factor <= 0 {
			factor = 10
		}
		exec = time.Duration(float64(exec) * factor)
		w.m.faultSlow.Inc()
	}
	started := engine.Now()
	// Per-function energy: snapshot the meter now, bank the delta when the
	// job finishes. Only metered ARM workers attribute joules — an X86
	// microVM is not a metered device, its host rack server is.
	metered := w.dev != nil
	var energyStart power.Joules
	if metered {
		energyStart = w.dev.Energy(started)
	}

	finish := func() {
		rebootDetail := "power-down"
		switch {
		case fail && w.cfg.Managed:
			// The environment is suspect but the manager owns the power
			// plane: go cold-idle and let the orchestrator's NoteFault
			// power-cycle the node through the manager.
			w.warm = false
			w.setState(power.Idle, "fault: awaiting power-cycle")
			rebootDetail = "fault-power-cycle"
		case fail:
			// A crashed worker cannot be trusted warm: the OP power-cycles
			// it regardless of the keep-warm/no-reboot policy.
			w.warm = false
			w.setState(power.Off, "fault: forced power-off")
			rebootDetail = "fault-power-off"
		default:
			w.afterJob()
			switch {
			case w.cfg.DisableReboot:
				rebootDetail = "stay-up"
			case w.cfg.KeepWarm > 0:
				rebootDetail = "keep-warm"
			case w.cfg.Managed:
				rebootDetail = "managed-idle"
			}
		}
		res := core.Result{
			Job: job, WorkerID: w.cfg.ID,
			Output:     w.outputs[job.Function],
			StartedAt:  started,
			FinishedAt: engine.Now(),
			Boot:       boot,
			Overhead:   overhead,
			Exec:       exec,
		}
		if fail {
			res.Err = "node: injected worker fault"
			res.Output = nil
		}
		if metered {
			// Crashed attempts are charged too: the joules were burned on
			// this function's behalf even if the result was lost. The
			// result carries the joules so the orchestrator can account
			// them against the function's energy budget.
			delta := w.dev.Energy(engine.Now()) - energyStart
			res.Joules = float64(delta)
			w.m.energy(job.Function).Add(float64(delta))
		}
		// The post-job power transition is instantaneous in the sim, so the
		// reboot span is a zero-length marker naming the policy applied.
		recordSpan(w.cfg.Tracer, job, tracing.PhaseReboot, w.cfg.ID,
			engine.Now(), engine.Now(), 0, rebootDetail, "")
		done(res)
	}

	if w.cfg.Platform == model.ARM {
		w.runARM(job, boot, overhead, exec, finish)
	} else {
		w.runX86(job, spec, boot, overhead, exec, finish)
	}
}

// afterJob applies the worker's post-job power policy: the paper's
// immediate power-down, DisableReboot's stay-up, KeepWarm's bounded idle
// window that expires into power-off, or Managed's stay-warm-idle (the
// power manager decides when the node actually powers off).
func (w *SimWorker) afterJob() {
	switch {
	case w.cfg.Managed:
		w.warm = true
		w.setState(power.Idle, "job done (managed idle)")
	case w.cfg.DisableReboot:
		w.warm = true
		w.setState(power.Idle, "job done (no-reboot ablation)")
	case w.cfg.KeepWarm > 0:
		w.warm = true
		w.setState(power.Idle, "job done (parked warm)")
		w.powerOff = w.cfg.Engine.Schedule(w.cfg.KeepWarm, func() {
			w.warm = false
			w.powerOff = sim.Timer{}
			w.setState(power.Off, "keep-warm window expired")
		})
	default: // the paper's policy
		w.warm = false
		w.setState(power.Off, "job done (power down)")
	}
}

// PowerUp implements powermgr.Node (managed mode): Off→Booting now,
// Booting→Idle (warm) after the worker's jittered boot time on the
// virtual clock, then ready fires on the engine thread. A node that is
// not Off boots nothing; ready is still scheduled (never synchronously —
// the manager may call PowerUp while holding locks the callback retakes).
func (w *SimWorker) PowerUp(cause string, ready func()) {
	engine := w.cfg.Engine
	if w.state != power.Off {
		if ready != nil {
			engine.Schedule(0, ready)
		}
		return
	}
	w.m.bootsCold.Inc()
	w.setState(power.Booting, cause)
	engine.Schedule(perturb(w.boot, w.jitter()), func() {
		w.warm = true
		w.setState(power.Idle, "boot complete (managed)")
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
	w.setState(power.Off, cause)
	return true
}

// ColdStarts and WarmStarts report how many jobs paid the boot versus
// skipped it (always cold under the paper's policy).
func (w *SimWorker) ColdStarts() int { return w.coldStart }

// WarmStarts reports boot-skipping job starts (keep-warm / no-reboot).
func (w *SimWorker) WarmStarts() int { return w.warmStart }

// traceJoules snapshots the worker's metered energy for span attribution.
// Zero when the job is untraced or the worker unmetered, so both
// boundaries of a span read zero and the span's energy stays zero.
func (w *SimWorker) traceJoules(job core.Job, now time.Duration) float64 {
	if w.cfg.Tracer == nil || !job.Trace.Valid() || w.dev == nil {
		return 0
	}
	return float64(w.dev.Energy(now))
}

// runARM chains the SBC's phases on the engine; nothing contends, so each
// phase is a plain delay with the right meter state. Boot and exec spans
// are recorded with contiguous boundaries (exec starts the instant boot
// ends) so a trace's phase durations telescope to its end-to-end latency,
// and with meter-snapshot energy deltas so its phase joules telescope to
// the invocation's metered energy.
func (w *SimWorker) runARM(job core.Job, boot, overhead, exec time.Duration, finish func()) {
	engine := w.cfg.Engine
	if boot > 0 {
		bootStart := engine.Now()
		e0 := w.traceJoules(job, bootStart)
		w.setStateJob(power.Booting, "PWR_BUT press", job.ID)
		w.m.event(bootStart, telemetry.EventBoot, job, w.cfg.ID, "cold")
		engine.Schedule(boot, func() {
			bootEnd := engine.Now()
			e1 := w.traceJoules(job, bootEnd)
			recordSpan(w.cfg.Tracer, job, tracing.PhaseBoot, w.cfg.ID,
				bootStart, bootEnd, e1-e0, "cold", "")
			w.setStateJob(power.Busy, "boot complete", job.ID)
			w.m.event(bootEnd, telemetry.EventExec, job, w.cfg.ID, "")
			engine.Schedule(overhead+exec, func() {
				end := engine.Now()
				recordSpan(w.cfg.Tracer, job, tracing.PhaseExec, w.cfg.ID,
					bootEnd, end, w.traceJoules(job, end)-e1, "overhead+exec", "")
				finish()
			})
		})
		return
	}
	// Warm start: already booted, straight to work.
	start := engine.Now()
	e0 := w.traceJoules(job, start)
	recordSpan(w.cfg.Tracer, job, tracing.PhaseBoot, w.cfg.ID, start, start, 0, "warm", "")
	w.setStateJob(power.Busy, "warm start", job.ID)
	w.m.event(start, telemetry.EventExec, job, w.cfg.ID, "warm")
	engine.Schedule(overhead+exec, func() {
		end := engine.Now()
		recordSpan(w.cfg.Tracer, job, tracing.PhaseExec, w.cfg.ID,
			start, end, w.traceJoules(job, end)-e0, "overhead+exec", "")
		finish()
	})
}

// runX86 runs the microVM's phases as rack-server CPU tasks: wall time
// stretches when the host's cores are oversubscribed.
func (w *SimWorker) runX86(job core.Job, spec model.FunctionSpec, boot, overhead, exec time.Duration, finish func()) {
	bootCPU := float64(boot) / float64(time.Second) * bootos.BootCPUFraction(model.X86)
	bootDemand := bootos.BootCPUFraction(model.X86)
	jobWall := overhead + exec
	jobCPU := spec.CPUTime(model.X86)
	// Demand so that uncontended wall time equals the calibrated total.
	demand := float64(jobCPU) / float64(jobWall)
	if demand > 1 {
		demand = 1 // a 1-vCPU microVM cannot exceed one core
	}
	cpuSeconds := demand * jobWall.Seconds()
	engine := w.cfg.Engine
	// A microVM is not a metered device (its host rack server is), so its
	// spans carry zero joules — host energy is attributed at cluster level.
	runExec := func(from time.Duration) {
		w.cfg.Server.Run(cpuSeconds, demand, func() {
			recordSpan(w.cfg.Tracer, job, tracing.PhaseExec, w.cfg.ID,
				from, engine.Now(), 0, "overhead+exec", "")
			finish()
		})
	}
	if boot == 0 {
		start := engine.Now()
		recordSpan(w.cfg.Tracer, job, tracing.PhaseBoot, w.cfg.ID, start, start, 0, "warm", "")
		w.m.event(start, telemetry.EventExec, job, w.cfg.ID, "warm")
		runExec(start)
		return
	}
	bootStart := engine.Now()
	w.m.event(bootStart, telemetry.EventBoot, job, w.cfg.ID, "cold")
	w.cfg.Server.Run(bootCPU, bootDemand, func() {
		bootEnd := engine.Now()
		recordSpan(w.cfg.Tracer, job, tracing.PhaseBoot, w.cfg.ID,
			bootStart, bootEnd, 0, "cold", "")
		w.m.event(bootEnd, telemetry.EventExec, job, w.cfg.ID, "")
		runExec(bootEnd)
	})
}

package node

import (
	"bufio"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/gpio"
	"microfaas/internal/power"
	"microfaas/internal/proto"
	"microfaas/internal/telemetry"
	"microfaas/internal/wire"
	"microfaas/internal/workload"
)

// FaultPolicy injects worker-side faults, one spec for both halves: a sim
// board takes it in BoardConfig.Faults and a live worker in
// LiveBoardConfig.Faults. Each attempt independently may hang (the worker
// never reports back, so only the OP's JobTimeout rescues the job), fail
// with an injected error, or straggle. The zero value injects nothing and
// draws no randomness.
//
// The halves draw in different orders from different random streams, and
// each half's seeded outputs pin its order, so neither may move:
//   - A sim board draws from its engine's RNG in the order error (then
//     the crash point partway through exec), hang, slow, and multiplies a
//     slow job's exec by SlowFactor. It reads neither Seed nor SlowDelay.
//   - A live worker draws from its own RNG seeded with Seed in the order
//     hang, error, slow, and delays a slow job by SlowDelay before it
//     executes: a real function's run time cannot be stretched, only
//     waited on. It reads no SlowFactor.
type FaultPolicy struct {
	// Seed seeds a live worker's fault draws (StartLive gives its worker
	// i the seed Seed+i, so each node is reproducible).
	Seed int64
	// HangProb, ErrorProb and SlowProb are each attempt's independent
	// probabilities of wedging, failing and straggling.
	HangProb, ErrorProb, SlowProb float64
	// SlowFactor multiplies a slow sim job's exec time (default 10).
	SlowFactor float64
	// SlowDelay is a slow live job's added delay (default 1s).
	SlowDelay time.Duration
}

// injects reports whether the policy can inject any fault.
func (f FaultPolicy) injects() bool {
	return f.HangProb > 0 || f.ErrorProb > 0 || f.SlowProb > 0
}

// LiveBoardConfig is what a live cluster hands every one of its workers
// whole: the modeled reboot and the fault spec. cluster.LiveOptions and
// LiveWorkerConfig both embed it, so each setting is declared once.
type LiveBoardConfig struct {
	// BootDelay simulates the worker-OS reboot before each job (default
	// 0). The BeagleBone value is 1.51 s (bootos.BootTime(bootos.ARM));
	// tests and examples usually shrink or zero it.
	BootDelay time.Duration
	// Faults injects hang/error/slow faults into the worker's invocations
	// (the zero value injects none). A live cluster gives its worker i the
	// seed Faults.Seed+i, so runs are reproducible per node.
	Faults FaultPolicy
}

// LiveWorkerConfig assembles a live worker: a real TCP server executing
// the real Go workload functions.
type LiveWorkerConfig struct {
	// ID names the worker (and its meter device).
	ID string
	// Env provides the backing-service addresses.
	Env *workload.Env
	LiveBoardConfig
	// Meter optionally receives wall-clock power accounting using Clock,
	// at power.DefaultSBCModel's draws.
	Meter *power.Meter
	// Clock is the cluster clock for meter timestamps (required when
	// Meter is set); typically core.WallRuntime.Now.
	Clock func() time.Duration
	// Telemetry optionally receives boot and fault-injection counters
	// and — when Meter is set — per-function joules attribution.
	Telemetry *telemetry.Telemetry
	// Managed hands the worker's power lifecycle to a powermgr.Manager:
	// the worker implements powermgr.Node (PowerUp sleeps BootDelay on
	// the wall clock as the modeled boot, PowerDown gates it off), tracks
	// a modeled power state (Off/Booting/Idle/Busy) for the meter and the
	// GPIO audit log, and skips the per-job reboot — the manager's wake
	// already paid it. Requires Clock.
	Managed bool
	// GPIO, when set with Managed, wires this worker into the power
	// manager's audit log: every modeled power-state transition is
	// recorded there with wall-clock timestamps, the live counterpart of
	// the sim's Fig 5 power timeline.
	GPIO *gpio.Controller
}

// LiveWorker implements core.Worker by serving the invocation protocol on
// a real TCP listener and executing internal/workload functions. The OP
// side holds one persistent multiplexed connection (proto.Conn) to the
// worker for its whole life — dialed lazily, redialed after faults or
// power cycles — so steady-state invocations pay framing and execution
// but no per-job dial or goroutine spawn: RunJob writes the request and
// returns, and the connection's reader settles the job when the reply
// arrives. The full protocol path — framed request, execution, framed
// response — still runs over real TCP.
type LiveWorker struct {
	cfg  LiveWorkerConfig
	dev  *power.Device // meter handle, taken once at start; nil when unmetered
	pin  *gpio.Pin     // PWR_BUT line, wired once at start; nil without GPIO
	sbc  power.SBCModel
	srv  wire.Server // the worker's TCP endpoint; Serve is serveConn
	addr string
	m    workerMetrics
	quit chan struct{} // closed on Close; releases hung invocations
	pc   *proto.Conn   // the OP's persistent connection to this worker

	mu     sync.Mutex
	closed bool
	rng    *rand.Rand  // fault draws; guarded by mu
	state  power.State // modeled power state (managed mode); guarded by mu
}

// StartLiveWorker binds the worker's TCP endpoint and begins serving.
func StartLiveWorker(cfg LiveWorkerConfig) (*LiveWorker, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("node: live worker needs an id")
	}
	if cfg.Env == nil {
		return nil, fmt.Errorf("node: live worker %s needs a workload env", cfg.ID)
	}
	if cfg.Meter != nil && cfg.Clock == nil {
		return nil, fmt.Errorf("node: live worker %s has a meter but no clock", cfg.ID)
	}
	if cfg.Managed && cfg.Clock == nil {
		return nil, fmt.Errorf("node: managed live worker %s needs a clock", cfg.ID)
	}
	if cfg.GPIO != nil && !cfg.Managed {
		return nil, fmt.Errorf("node: live worker %s: GPIO audit logging requires managed mode", cfg.ID)
	}
	w := &LiveWorker{cfg: cfg, sbc: power.DefaultSBCModel(), quit: make(chan struct{}), state: power.Off}
	w.m = newWorkerFamilies(cfg.Telemetry).worker(cfg.ID)
	if cfg.Faults.injects() {
		w.rng = rand.New(rand.NewSource(cfg.Faults.Seed))
	}
	w.srv.Name = "node: live worker " + cfg.ID
	w.srv.Serve = w.serveConn
	addr, err := w.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.addr = addr
	if cfg.Meter != nil {
		w.dev = cfg.Meter.Device(cfg.ID)
		w.dev.Set(w.sbc.Power(power.Off), cfg.Clock())
	}
	if cfg.GPIO != nil {
		if w.pin, err = cfg.GPIO.WireNext(cfg.ID); err != nil {
			w.srv.Close() //nolint:errcheck // never dialed
			return nil, err
		}
	}
	w.pc = proto.NewConn(w.addr)
	return w, nil
}

// ID implements core.Worker.
func (w *LiveWorker) ID() string { return w.cfg.ID }

// now reads the cluster clock; without one, it reads 0.
func (w *LiveWorker) now() time.Duration {
	if w.cfg.Clock != nil {
		return w.cfg.Clock()
	}
	return 0
}

// Close stops the worker's listener, closes every connection open on it
// (the OP's own and any other), and waits for in-flight handlers. Jobs in
// flight settle with an error, and so does every later RunJob.
func (w *LiveWorker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.quit) // release invocations wedged by fault injection
	w.pc.Close()  // settle in-flight calls and refuse new ones
	return w.srv.Close()
}

// setState moves the modeled power state (managed mode only).
func (w *LiveWorker) setState(to power.State, cause string, job int64) {
	w.mu.Lock()
	w.setStateLocked(to, cause, job)
	w.mu.Unlock()
}

// setStateLocked records a modeled power-state transition: it repoints the
// meter at the new state's draw and appends to the GPIO audit log. Same-
// state calls are no-ops. Callers hold w.mu. Timestamps come from the
// cluster clock; the audit log uses the monotone-clamping variant because
// concurrent wall-clock callers can race to the controller's lock. job is
// the job the cause names, gpio.NoJob for none.
func (w *LiveWorker) setStateLocked(to power.State, cause string, job int64) {
	if w.state == to {
		return
	}
	from := w.state
	w.state = to
	now := w.now()
	if w.dev != nil {
		w.dev.Set(w.sbc.Power(to), now)
	}
	if w.pin != nil {
		w.pin.TransitionMonotone(now, from, to, cause, job) //nolint:errcheck // wired at start; clamp keeps the log monotone
	}
}

// PowerUp implements powermgr.Node: it models the GPIO-triggered boot by
// holding the worker in Booting for BootDelay of wall-clock time, then
// settling to Idle and invoking ready. ready always runs from a fresh
// goroutine or timer — never synchronously — because the manager calls
// PowerUp while holding both its own and the orchestrator's locks. An
// already-powered worker skips straight to ready. cause and job go to the
// GPIO log as the Off→Booting transition's cause.
func (w *LiveWorker) PowerUp(cause string, job int64, ready func()) {
	w.mu.Lock()
	if w.state != power.Off {
		w.mu.Unlock()
		if ready != nil {
			go ready()
		}
		return
	}
	w.m.bootsCold.Inc()
	w.setStateLocked(power.Booting, cause, job)
	w.mu.Unlock()
	time.AfterFunc(w.cfg.BootDelay, func() {
		w.mu.Lock()
		if w.state == power.Booting {
			w.setStateLocked(power.Idle, "boot complete (managed)", gpio.NoJob)
		}
		w.mu.Unlock()
		if ready != nil {
			ready()
		}
	})
}

// PowerDown implements powermgr.Node: it gates the worker off when safely
// idle. A Busy or Booting worker refuses (returns false) and the manager
// leaves it up; an already-off worker reports success without logging. A
// successful power-down also drops the OP's persistent connection — a
// gated-off SBC cannot hold a TCP session — so the next dispatch redials
// against the freshly booted node.
func (w *LiveWorker) PowerDown(cause string) bool {
	w.mu.Lock()
	switch w.state {
	case power.Busy, power.Booting:
		w.mu.Unlock()
		return false
	case power.Off:
		w.mu.Unlock()
		return true
	}
	w.setStateLocked(power.Off, cause, gpio.NoJob)
	w.mu.Unlock()
	w.pc.Reset(fmt.Sprintf("power-cycled (%s)", cause))
	return true
}

// faultAction is the fate fault injection deals one invocation.
type faultAction int

const (
	faultNone faultAction = iota
	faultHang
	faultError
	faultSlow
)

// drawFault rolls the worker's fault dice for one invocation.
func (w *LiveWorker) drawFault() faultAction {
	f := &w.cfg.Faults
	if !f.injects() {
		return faultNone
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if f.HangProb > 0 && w.rng.Float64() < f.HangProb {
		return faultHang
	}
	if f.ErrorProb > 0 && w.rng.Float64() < f.ErrorProb {
		return faultError
	}
	if f.SlowProb > 0 && w.rng.Float64() < f.SlowProb {
		return faultSlow
	}
	return faultNone
}

// serveConn handles invocations on one connection sequentially until the
// peer hangs up. The persistent session is the OP's management plane; the
// worker itself stays single-tenant and run-to-completion — each request
// pays the modeled reboot (unless managed) and builds all of its state
// from scratch, the Go equivalent of the prototype's reboot-to-initramfs
// reproducible environment. The request frame is the dispatch signal, so
// the boot is modeled after the frame arrives (with per-job connections
// the connect itself carried that signal).
func (w *LiveWorker) serveConn(br *bufio.Reader, bw *bufio.Writer) {
	var scratch []byte
	for {
		req, err := proto.ReadRequest(br, &scratch)
		if err != nil {
			return
		}
		recvAt := time.Now()
		resp, replied := w.handleRequest(req, recvAt)
		if !replied {
			// A wedged node: the TCP peer is alive but the reply never
			// comes — and neither does any later reply on this session.
			// The OP's deadline fires first; its invoke timeout drops the
			// connection and the next dispatch redials fresh.
			<-w.quit
			return
		}
		if err := proto.WriteResponse(bw, req, resp); err != nil {
			return
		}
	}
}

// handleRequest executes one invocation: fault draw, the simulated reboot,
// then real function execution. It reports replied=false when fault
// injection wedged the invocation (the caller must never answer).
func (w *LiveWorker) handleRequest(req proto.Request, recvAt time.Time) (resp proto.Response, replied bool) {
	fault := w.drawFault()
	switch fault {
	case faultHang:
		w.m.faultHang.Inc()
		return proto.Response{}, false
	case faultError:
		w.m.faultError.Inc()
	case faultSlow:
		w.m.faultSlow.Inc()
	}
	// overheadIn is the protocol overhead between the request frame's
	// arrival and the start of the modeled cycle. With a persistent
	// session this is decode + dispatch only — the dial/accept cost that
	// used to dominate it is paid once per connection, not per job.
	overheadIn := time.Since(recvAt)
	// Every live invocation pays the simulated reboot: the paper's policy,
	// so every start is cold. Managed workers skip it — the power
	// manager's wake already paid the boot before the job was dispatched,
	// so the job lands warm.
	bootStart := time.Now()
	if w.cfg.Managed {
		w.m.bootsWarm.Inc()
	} else {
		w.m.bootsCold.Inc()
		if w.cfg.BootDelay > 0 {
			time.Sleep(w.cfg.BootDelay)
		}
	}
	boot := time.Since(bootStart)
	if fault == faultError {
		return proto.Response{
			Err:    fmt.Sprintf("node: injected worker fault on %s", w.cfg.ID),
			BootMs: float64(boot) / float64(time.Millisecond),
		}, true
	}
	if fault == faultSlow {
		delay := w.cfg.Faults.SlowDelay
		if delay <= 0 {
			delay = time.Second
		}
		select {
		case <-time.After(delay):
		case <-w.quit:
			return proto.Response{Err: "node: worker shut down mid-job"}, true
		}
	}
	execStart := time.Now()
	out, err := workload.Invoke(w.cfg.Env, req.Function, req.Args)
	exec := time.Since(execStart)
	resp = proto.Response{
		Output:     out,
		BootMs:     float64(boot) / float64(time.Millisecond),
		OverheadMs: float64(overheadIn) / float64(time.Millisecond),
		ExecMs:     float64(exec) / float64(time.Millisecond),
	}
	if err != nil {
		resp.Err = err.Error()
		resp.Output = nil
	}
	return resp, true
}

// invokeTimeout bounds one invocation round trip over the worker's
// connection.
const invokeTimeout = 2 * time.Minute

// RunJob implements core.Worker, as the OP side of the exchange: it moves
// the meter and power state to busy, writes the request on the persistent
// connection, and returns. The connection settles the call off this
// goroutine (see proto.Conn.Go), and the completion turns that into the
// job's Result: worker timings, the power state back to idle or off, and
// the metered joules, of which the boot drew Busy watts for its reported
// length (RunJob sets Busy for the whole attempt).
func (w *LiveWorker) RunJob(job core.Job, done func(core.Result)) {
	var started time.Duration
	var energyStart power.Joules
	if w.dev != nil || w.cfg.Managed {
		started = w.cfg.Clock()
	}
	if w.dev != nil {
		energyStart = w.dev.Energy(started)
	}
	if w.cfg.Managed {
		w.setState(power.Busy, "exec", job.ID)
	} else if w.dev != nil {
		w.dev.Set(w.sbc.Power(power.Busy), started)
	}
	w.pc.Go(proto.Request{
		JobID: job.ID, Function: job.Function, Args: job.Args,
	}, invokeTimeout, func(resp proto.Response, err error) {
		res := core.Result{Job: job, WorkerID: w.cfg.ID, StartedAt: started}
		if err != nil {
			res.Err = err.Error()
		} else {
			res.Output = resp.Output
			res.Err = resp.Err
			res.Boot = resp.Boot()
			res.Overhead = resp.Overhead()
			res.Exec = resp.Exec()
		}
		if w.dev != nil || w.cfg.Managed {
			now := w.cfg.Clock()
			res.FinishedAt = now
			if w.cfg.Managed {
				// The manager decides when the worker powers off; the job
				// just hands the node back to idle draw.
				w.setState(power.Idle, "job done (managed idle)", gpio.NoJob)
			} else if w.dev != nil {
				w.dev.Set(w.sbc.Power(power.Off), now)
			}
			if w.dev != nil {
				// Failed attempts are charged too: the joules were burned on
				// this function's behalf even if the result was lost.
				delta := w.dev.Energy(now) - energyStart
				res.Joules = float64(delta)
				res.BootJoules = min(float64(power.Energy(w.sbc.Power(power.Busy), res.Boot)), res.Joules)
				w.m.energy(job.Function).Add(float64(delta))
			}
		}
		done(res)
	})
}

// Package cluster assembles complete MicroFaaS and conventional clusters
// in both execution modes, mirroring the paper's two test setups
// (Sec IV-B and Sec V):
//
//   - the MicroFaaS cluster: N single-core ARM SBC workers, each with a
//     Fast Ethernet link, orchestrated run-to-completion with
//     reboot-between-jobs and power-down-when-idle;
//   - the conventional cluster: N single-vCPU QEMU microVMs sharing one
//     12-core rack server through a bridged-virtio network path.
//
// Sim clusters run on the discrete-event engine and scale to the paper's
// hypothetical 989-node racks; the live cluster runs real TCP workers and
// the real workload suite.
package cluster

import (
	"fmt"
	"strconv"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/gpio"
	"microfaas/internal/model"
	"microfaas/internal/node"
	"microfaas/internal/power"
	"microfaas/internal/powermgr"
	"microfaas/internal/sim"
	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
)

// SimConfig tunes a simulated cluster.
type SimConfig struct {
	// Seed drives all randomness (assignment, jitter); same seed → same run.
	Seed int64
	// BoardConfig is every worker's link, boot, power policy and faults
	// (see node.BoardConfig; the ablations override it).
	node.BoardConfig
	// Specs overrides the function table (the crypto-accelerator ablation).
	Specs []model.FunctionSpec
	// Policy selects the OP's queue-assignment policy.
	Policy core.AssignPolicy
	// AttemptPolicy is the OP's retries, deadlines (on the virtual
	// clock), backoff, breakers and budget hold (see core.AttemptPolicy).
	core.AttemptPolicy
	// Telemetry enables the metrics registry across the
	// OP, the workers, and the power meter. Nil (the default) disables
	// instrumentation entirely; because telemetry never draws from the
	// seeded RNG or schedules events, enabling it leaves a seeded run's
	// trace bit-identical.
	Telemetry *telemetry.Telemetry
	// Power enables the dynamic power-management plane (MicroFaaS
	// clusters only): workers run managed — powered off until the OP
	// wakes them, idle-powered-down per the policy — instead of the
	// static per-job power cycle. Mutually exclusive with DisableReboot
	// and KeepWarm. Nil (the default) leaves seeded runs byte-identical
	// to clusters built before the power manager existed.
	Power *powermgr.Policy
}

// simJitter is every sim worker's relative service-time perturbation
// (node.SimWorkerConfig.Jitter).
const simJitter = 0.03

// Sim is an assembled simulated cluster.
type Sim struct {
	Engine  *sim.Engine
	Meter   *power.Meter
	Orch    *core.Orchestrator
	Workers []*node.SimWorker
	// Server is the rack server (conventional clusters only).
	Server *node.RackServer
	// GPIO is the OP's power-control plane with the cluster's power-state
	// audit log (MicroFaaS clusters only).
	GPIO *gpio.Controller
	// Telemetry is the cluster's metrics registry (nil
	// when SimConfig.Telemetry was nil).
	Telemetry *telemetry.Telemetry
	// PowerMgr is the dynamic power-management plane (nil unless
	// SimConfig.Power was set; MicroFaaS clusters only).
	PowerMgr *powermgr.Manager
}

// simBuilder carries what every worker and orchestrator of one simulated
// cluster shares — the config, the single virtual clock, the meter, the
// function table, and (MicroFaaS clusters) the GPIO power plane — and
// builds the cluster one control-plane shard at a time. The unsharded
// constructors are the one-shard case: shard 0, no label, the caller's
// own telemetry.
type simBuilder struct {
	cfg    SimConfig
	engine *sim.Engine
	meter  *power.Meter
	gpio   *gpio.Controller
	// fns is the table built from cfg.Specs; nil (the workers' shared
	// Table I default) when the config overrides nothing.
	fns *node.FunctionTable
}

// newSimBuilder starts a cluster on a fresh engine seeded from cfg; the
// meter's cluster-wide gauges land in cfg.Telemetry. controller is nil
// for rack-server clusters.
func newSimBuilder(cfg SimConfig, controller *gpio.Controller) *simBuilder {
	b := &simBuilder{cfg: cfg, engine: sim.NewEngine(cfg.Seed), meter: power.NewMeter(), gpio: controller}
	if cfg.Specs != nil {
		b.fns = node.NewFunctionTable(cfg.Specs)
	}
	registerMeterMetrics(cfg.Telemetry, b.meter, b.engine.Now)
	return b
}

// newConventionalBuilder is newSimBuilder for rack-server clusters, which
// have no GPIO plane and cannot be power-managed.
func newConventionalBuilder(cfg SimConfig) (*simBuilder, error) {
	if cfg.Power != nil {
		return nil, fmt.Errorf("cluster: power management applies to MicroFaaS SBC clusters only")
	}
	return newSimBuilder(cfg, nil), nil
}

// rackServer adds one rack server to the cluster's meter.
func (b *simBuilder) rackServer(id string) *node.RackServer {
	return node.NewRackServer(id, model.ServerCores, b.engine, b.meter, power.DefaultServerModel())
}

// workers builds one worker per id in one batch: SBCs on the shared GPIO
// plane when server is nil, microVMs hosted on server otherwise.
func (b *simBuilder) workers(ids []string, server *node.RackServer, tel *telemetry.Telemetry) ([]*node.SimWorker, error) {
	return node.NewSimWorkers(b.workerConfig(server, tel), ids)
}

// workerConfig is the config of every worker the cluster builds on
// server (nil for SBCs) reporting to tel; its ID is left for the caller.
func (b *simBuilder) workerConfig(server *node.RackServer, tel *telemetry.Telemetry) node.SimWorkerConfig {
	platform, controller := model.ARM, b.gpio
	if server != nil {
		platform, controller = model.X86, nil
	}
	return node.SimWorkerConfig{
		Platform:    platform,
		BoardConfig: b.cfg.BoardConfig,
		Engine:      b.engine,
		Meter:       b.meter,
		Server:      server,
		GPIO:        controller,
		Jitter:      simJitter,
		Functions:   b.fns,
		Managed:     b.cfg.Power != nil,
		Telemetry:   tel,
	}
}

// boardIDs names n boards prefix+i, i zero-padded to width digits as
// %0*d pads it, all cut from one string: a shard's names cost three
// allocations, not one per board.
func boardIDs(prefix string, width, n int) []string {
	buf := make([]byte, 0, n*(len(prefix)+width))
	for i := 0; i < n; i++ {
		buf = append(buf, prefix...)
		for d := digits(i); d < width; d++ {
			buf = append(buf, '0')
		}
		buf = strconv.AppendInt(buf, int64(i), 10)
	}
	all := string(buf)
	ids := make([]string, n)
	for i := range ids {
		l := len(prefix) + max(width, digits(i))
		ids[i], all = all[:l], all[l:]
	}
	return ids
}

// digits is the number of decimal digits of i >= 0.
func digits(i int) int {
	d := 1
	for ; i >= 10; i /= 10 {
		d++
	}
	return d
}

// shard wires control-plane shard si over workers: the OP config every
// sim constructor derives from SimConfig, the shard's own RNG stream and
// disjoint job-id space (shard 0's are the unsharded seed and ids), and —
// when power management is on — a manager over exactly these workers.
func (b *simBuilder) shard(si int, label string, tel *telemetry.Telemetry, workers []*node.SimWorker) (*core.Orchestrator, *powermgr.Manager, error) {
	rt := core.SimRuntime{Engine: b.engine}
	cc := core.Config{
		Runtime:       rt,
		Workers:       make([]core.Worker, len(workers)),
		Seed:          b.cfg.Seed + 1 + int64(si),
		Policy:        b.cfg.Policy,
		AttemptPolicy: b.cfg.AttemptPolicy,
		Telemetry:     tel,
		ShardLabel:    label,
		JobIDBase:     int64(si) * shardIDSpan,
	}
	for i, w := range workers {
		cc.Workers[i] = w
	}
	var pm *powermgr.Manager
	if b.cfg.Power != nil {
		var err error
		if pm, err = newPowerManager(rt, workers, *b.cfg.Power, tel); err != nil {
			return nil, nil, err
		}
		cc.PowerManager = pm
	}
	orch, err := core.New(cc)
	return orch, pm, err
}

// newPowerManager wires a power manager over exactly the given workers,
// for sim shards and the live cluster alike.
func newPowerManager[W powermgr.Node](rt powermgr.Runtime, workers []W, policy powermgr.Policy, tel *telemetry.Telemetry) (*powermgr.Manager, error) {
	nodes := make([]powermgr.Node, len(workers))
	for i, w := range workers {
		nodes[i] = w
	}
	return powermgr.New(powermgr.Config{Runtime: rt, Nodes: nodes, Policy: policy, Telemetry: tel})
}

// sim finishes an unsharded cluster: one shard over every worker built.
// server is the cluster's (first) rack server, nil for MicroFaaS.
func (b *simBuilder) sim(server *node.RackServer, workers []*node.SimWorker) (*Sim, error) {
	orch, pm, err := b.shard(0, "", b.cfg.Telemetry, workers)
	if err != nil {
		return nil, err
	}
	return &Sim{
		Engine: b.engine, Meter: b.meter, Orch: orch, Workers: workers, Server: server,
		GPIO: b.gpio, Telemetry: b.cfg.Telemetry, PowerMgr: pm,
	}, nil
}

// NewMicroFaaSSim builds an n-SBC MicroFaaS cluster.
func NewMicroFaaSSim(n int, cfg SimConfig) (*Sim, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one SBC, got %d", n)
	}
	b := newSimBuilder(cfg, gpio.NewController())
	workers, err := b.workers(boardIDs("sbc-", 3, n), nil, cfg.Telemetry)
	if err != nil {
		return nil, err
	}
	return b.sim(nil, workers)
}

// NewConventionalSim builds a vms-VM conventional cluster on one rack
// server.
func NewConventionalSim(vms int, cfg SimConfig) (*Sim, error) {
	if vms <= 0 {
		return nil, fmt.Errorf("cluster: need at least one VM, got %d", vms)
	}
	b, err := newConventionalBuilder(cfg)
	if err != nil {
		return nil, err
	}
	server := b.rackServer("rack-server")
	workers, err := b.workers(boardIDs("vm-", 3, vms), server, cfg.Telemetry)
	if err != nil {
		return nil, err
	}
	return b.sim(server, workers)
}

// NewConventionalRackSim builds a rack of several conventional servers —
// `servers` rack servers each hosting `vmsPerServer` microVMs — in one
// simulation, for the datacenter-scale comparison behind Table II's
// throughput-equivalence assumption. Sim.Server is the first server.
func NewConventionalRackSim(servers, vmsPerServer int, cfg SimConfig) (*Sim, error) {
	if servers <= 0 || vmsPerServer <= 0 {
		return nil, fmt.Errorf("cluster: need positive servers (%d) and VMs per server (%d)", servers, vmsPerServer)
	}
	b, err := newConventionalBuilder(cfg)
	if err != nil {
		return nil, err
	}
	var first *node.RackServer
	workers := make([]*node.SimWorker, 0, servers*vmsPerServer)
	for sv := 0; sv < servers; sv++ {
		server := b.rackServer(fmt.Sprintf("rack-server-%03d", sv))
		if sv == 0 {
			first = server
		}
		vms, err := b.workers(boardIDs(fmt.Sprintf("vm-%03d-", sv), 3, vmsPerServer), server, cfg.Telemetry)
		if err != nil {
			return nil, err
		}
		workers = append(workers, vms...)
	}
	return b.sim(first, workers)
}

// RunSuite issues approximately jobsPerFunction invocations of each named
// function (default: the full 17-function suite; the count rounds to a
// multiple of the worker count, at least one suite pass per worker) and
// drives the simulation until every job completes. Every worker drains an
// equal, fully-mixed queue — this measures the cluster's capacity
// ("capable of N func/min", Sec V) without the queue-imbalance artifacts
// a random assignment adds to short runs. The arrival-driven mode
// (Orchestrator.StartArrivals) keeps the paper's random-sampling policy.
func (s *Sim) RunSuite(jobsPerFunction int, functions []string) (*trace.Collector, error) {
	if jobsPerFunction <= 0 {
		return nil, fmt.Errorf("cluster: jobsPerFunction must be positive")
	}
	if functions == nil {
		for _, f := range model.Functions() {
			functions = append(functions, f.Name)
		}
	}
	// Deal every worker an identical multiset of work — `rounds` full
	// passes of the suite, with the pass order rotated by worker index so
	// no two workers execute the same function simultaneously. Identical
	// per-worker multisets make the makespan reflect cluster capacity
	// rather than deal luck; simpler interleavings alias badly whenever
	// the worker count shares structure with the 17-function stride
	// (e.g. a running counter gives each of 17 workers a single function).
	ids := s.Orch.Workers()
	rounds := jobsPerFunction / len(ids)
	if rounds < 1 {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		for step := range functions {
			for w, id := range ids {
				fn := functions[(step+w)%len(functions)]
				if _, err := s.Orch.SubmitTo(id, fn, nil); err != nil {
					return nil, err
				}
			}
		}
	}
	s.Engine.RunAll()
	if pending := s.Orch.Pending(); pending != 0 {
		return nil, fmt.Errorf("cluster: %d jobs stuck after drain", pending)
	}
	return s.Orch.Collector(), nil
}

// SuiteStats aggregates a drained run.
type SuiteStats struct {
	Completed int
	Errors    int
	// MeanCycle is the mean boot+overhead+exec across invocations.
	MeanCycle time.Duration
	// ThroughputPerMin is the cluster's steady-state capacity in
	// functions per minute (workers × 60 / mean cycle).
	ThroughputPerMin float64
	// TotalEnergyJ is the whole-cluster metered energy, and
	// JoulesPerFunction the paper's headline metric.
	TotalEnergyJ      float64
	JoulesPerFunction float64
	// MakespanS is the virtual time the run took.
	MakespanS float64
}

// Stats summarizes the cluster state after RunSuite.
func (s *Sim) Stats() SuiteStats {
	sum := trace.Summarize(s.Orch.Collector())
	st := SuiteStats{
		Completed: sum.Completed,
		Errors:    sum.Errors,
		MeanCycle: sum.MeanCycle,
		MakespanS: s.Engine.Now().Seconds(),
	}
	st.TotalEnergyJ = float64(s.Meter.TotalEnergy(s.Engine.Now()))
	if st.Completed > 0 {
		st.ThroughputPerMin = float64(len(s.Workers)) * 60 / st.MeanCycle.Seconds()
		st.JoulesPerFunction = st.TotalEnergyJ / float64(st.Completed)
	}
	return st
}

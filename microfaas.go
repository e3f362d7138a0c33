// Package microfaas is a from-scratch Go implementation of MicroFaaS, the
// energy-efficient bare-metal serverless platform of Byrne et al. (DATE
// 2022), together with everything needed to reproduce the paper's
// evaluation: the worker-OS boot model, the 17-function workload suite and
// its four backing services (Redis/PostgreSQL/MinIO/Kafka substitutes),
// the cluster orchestration platform, a discrete-event cluster simulator
// calibrated to the paper's published numbers, the Cui-style TCO model,
// and an HTTP FaaS gateway.
//
// This package is the public facade: it re-exports the pieces a downstream
// user composes. Three entry points cover most uses:
//
//   - StartLiveCluster boots a real in-process MicroFaaS deployment —
//     four backing services, N TCP workers executing real Go functions,
//     and the orchestration platform — ready for Submit/Quiesce or for an
//     HTTP gateway via NewGateway and Listen.
//   - NewMicroFaaSSim / NewConventionalSim build the paper's two
//     evaluation clusters on a deterministic discrete-event simulator.
//   - The microfaas-sim command regenerates the paper's figures and
//     tables (see EXPERIMENTS.md for measured-vs-paper values).
package microfaas

import (
	"io"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/core"
	"microfaas/internal/experiments"
	"microfaas/internal/gateway"
	"microfaas/internal/model"
	"microfaas/internal/node"
	"microfaas/internal/power"
	"microfaas/internal/powermgr"
	"microfaas/internal/shard"
	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
	"microfaas/internal/workload"
)

// --- Live clusters ---

// LiveOptions configures StartLiveCluster.
type LiveOptions = cluster.LiveOptions

// LiveBoardConfig is every live worker's modeled reboot (BootDelay) and
// injected faults. LiveOptions embeds one and hands it to each worker.
type LiveBoardConfig = node.LiveBoardConfig

// AttemptPolicy is how the orchestrator attempts each job: the attempt
// cap, the per-attempt deadline, retry backoff, the per-worker circuit
// breaker and the budget hold. LiveOptions and SimOptions both embed one.
type AttemptPolicy = core.AttemptPolicy

// FaultPolicy injects worker faults, one spec for both halves:
// LiveOptions.Faults and SimOptions.Faults take it, and its zero value
// injects none. A live worker draws hang, error, slow from its own RNG
// seeded with Seed and delays a slow job by SlowDelay; a sim board draws
// error, hang, slow from the engine's RNG and multiplies a slow job's
// exec by SlowFactor.
type FaultPolicy = node.FaultPolicy

// LiveCluster is a running in-process MicroFaaS deployment.
type LiveCluster = cluster.Live

// StartLiveCluster boots backing services, workers, and the orchestration
// platform on loopback TCP. Always Close the returned cluster.
func StartLiveCluster(opts LiveOptions) (*LiveCluster, error) {
	return cluster.StartLive(opts)
}

// Gateway is an HTTP FaaS endpoint over a cluster's control plane.
type Gateway = gateway.Server

// GatewayOptions configures a gateway beyond its control plane (sim/live
// mode label, store). Its Telemetry and Tracer fields are not read: the
// orchestrator's own telemetry backs /metrics and /events, and its
// record window /traces.
type GatewayOptions = gateway.Options

// NewGateway builds an HTTP gateway over any orchestrator — live or
// simulated — as a control plane of one shard, without binding it to a
// port; call Listen to bind, or mount Handler on a server of your own.
func NewGateway(orch *Orchestrator, opts GatewayOptions) (*Gateway, error) {
	plane, err := shard.NewPlane(orch.Runtime(), []*core.Orchestrator{orch}, shard.Config{})
	if err != nil {
		return nil, err
	}
	return gateway.New(plane, opts)
}

// Orchestrator is the cluster orchestration platform (the OP of Sec IV-D).
type Orchestrator = core.Orchestrator

// InvocationResult is one completed invocation as delivered to
// Orchestrator.SubmitAsync callbacks.
type InvocationResult = core.Result

// BreakerOpen is the circuit-breaker state of a worker the orchestrator
// has stopped assigning to (see Orchestrator.Health).
const BreakerOpen = core.BreakerOpen

// --- Sharded control plane ---

// ShardPlane is the consistent-hash load-balancer tier in front of N
// orchestrator shards: it routes invocations by key (bounded-load
// hashing), rebalances ring weights, and steals queued work from
// backlogged shards. See ARCHITECTURE.md's shard-tier section.
type ShardPlane = shard.Plane

// ShardPlaneConfig tunes a ShardPlane (bounded-load factor, stealing,
// rebalancing, membership).
type ShardPlaneConfig = shard.Config

// ShardStealConfig and ShardRebalanceConfig tune the plane's capacity
// aggregator.
type (
	ShardStealConfig     = shard.StealConfig
	ShardRebalanceConfig = shard.RebalanceConfig
)

// Runtime is the clock abstraction orchestrators and the shard plane
// run on — core.SimRuntime in simulations, core.NewWallRuntime() live.
type Runtime = core.Runtime

// NewShardPlane builds the load-balancer tier over orchestrators that
// each own a disjoint worker partition and job-id space (see
// LiveOptions.ShardLabel / LiveOptions.JobIDBase). The runtime must be
// the clock the shards run on.
func NewShardPlane(rt Runtime, shards []*Orchestrator, cfg ShardPlaneConfig) (*ShardPlane, error) {
	return shard.NewPlane(rt, shards, cfg)
}

// ShardedSimCluster is a simulated MicroFaaS deployment split into N
// control-plane shards behind a ShardPlane, all on one virtual clock.
type ShardedSimCluster = cluster.ShardedSim

// ShardedSimStats summarizes a drained sharded run.
type ShardedSimStats = cluster.ShardedStats

// NewShardedMicroFaaSSim builds shards × workersPerShard SBCs split
// into that many control-plane shards behind a load-balancer tier.
func NewShardedMicroFaaSSim(shards, workersPerShard int, opts SimOptions, scfg ShardPlaneConfig) (*ShardedSimCluster, error) {
	return cluster.NewShardedMicroFaaSSim(shards, workersPerShard, opts, scfg)
}

// --- Telemetry and tracing ---

// Telemetry bundles a cluster's metrics registry and lifecycle-event
// stream; pass one instance via LiveOptions.Telemetry or
// SimOptions.Telemetry and serve it through a Gateway's /metrics and
// /events routes. Nil disables instrumentation with zero overhead.
type Telemetry = telemetry.Telemetry

// NewTelemetry returns a telemetry bundle with default settings.
func NewTelemetry() *Telemetry { return telemetry.New() }

// MetricSamples is a parsed Prometheus text exposition, as returned by
// ParseMetrics — convenient for asserting on or post-processing a
// /metrics scrape without a Prometheus dependency.
type MetricSamples = telemetry.Samples

// ParseMetrics parses a Prometheus text-format exposition.
func ParseMetrics(r io.Reader) (MetricSamples, error) { return telemetry.ParseText(r) }

// Tracer is what the sampled tracer's callers still hold: an empty value
// nothing reads. Every job in a cluster's record window has a trace,
// rendered from its invocation records (a Gateway's /traces routes), so
// there is nothing to sample. LiveOptions.Tracer, GatewayOptions.Tracer
// and tsdb.Config.Tracer still accept one, so code that sets them
// compiles until it drops them.
type Tracer = trace.Tracer

// TracerConfig is the sampled tracer's settings, kept so code that builds
// one compiles. Nothing reads them.
type TracerConfig struct {
	// Seed, SampleRate and SlowThreshold were the head sampler's seed,
	// kept fraction and always-kept latency.
	Seed          int64
	SampleRate    float64
	SlowThreshold time.Duration
}

// NewTracerWithConfig returns an empty Tracer; cfg is not read.
func NewTracerWithConfig(cfg TracerConfig) *Tracer { return &Tracer{} }

// --- Power ---

// SBCPowerModel maps an SBC worker's operating state to its power draw,
// so user code can derive joules from trace records independently of the
// metered counters (see examples/faulttolerance for the cross-check).
type SBCPowerModel = power.SBCModel

// Worker operating states for SBCPowerModel.Power.
const (
	PowerBooting = power.Booting
	PowerBusy    = power.Busy
)

// DefaultSBCPowerModel returns the BeagleBone Black draw constants from
// the paper's Appendix.
func DefaultSBCPowerModel() SBCPowerModel { return power.DefaultSBCModel() }

// PowerPolicy tunes the dynamic power manager: idle timeout before a
// worker is power-gated, minimum-up hysteresis, and an optional cluster
// watt budget. Pass one via LiveOptions.Power or SimOptions.Power to turn
// power management on; leave nil for the static per-job power cycle.
type PowerPolicy = powermgr.Policy

// Assignment policies for LiveOptions.Policy and SimOptions.Policy.
// AssignEnergyAware pairs with a PowerPolicy: it packs load onto powered
// workers so idle ones can be power-gated.
const (
	AssignLeastLoaded = core.AssignLeastLoaded
	AssignEnergyAware = core.AssignEnergyAware
)

// --- Simulated clusters ---

// SimOptions configures a simulated cluster.
type SimOptions = cluster.SimConfig

// BoardConfig is every simulated board's link, boot time, power policy
// between jobs (the no-reboot and keep-warm ablations) and injected
// faults. SimOptions embeds one.
type BoardConfig = node.BoardConfig

// SimCluster is a discrete-event MicroFaaS or conventional cluster.
type SimCluster = cluster.Sim

// NewMicroFaaSSim builds an n-SBC MicroFaaS cluster on the simulator.
func NewMicroFaaSSim(n int, opts SimOptions) (*SimCluster, error) {
	return cluster.NewMicroFaaSSim(n, opts)
}

// NewConventionalSim builds an n-VM conventional cluster (one rack server)
// on the simulator.
func NewConventionalSim(n int, opts SimOptions) (*SimCluster, error) {
	return cluster.NewConventionalSim(n, opts)
}

// --- Workloads ---

// WorkloadFunction is one Table-I workload function.
type WorkloadFunction = workload.Function

// Functions returns the 17-function workload suite.
func Functions() []WorkloadFunction { return workload.All() }

// FunctionNames returns the suite's sorted names.
func FunctionNames() []string { return workload.Names() }

// FunctionSpec is a function's calibrated performance model.
type FunctionSpec = model.FunctionSpec

// FunctionSpecs returns the calibrated Table-I performance models.
func FunctionSpecs() []FunctionSpec { return model.Functions() }

// --- Paper results ---

// Fig5Config and Fig5Point are Fig 5's parameters and measured points.
// RunConfig is the seed and worker-pool size Fig5Config embeds, as every
// experiment's config does; the result depends on the seed only.
type (
	Fig5Config = experiments.Fig5Config
	Fig5Point  = experiments.Fig5Point
	RunConfig  = experiments.RunConfig
)

// Fig5 measures cluster power versus active worker count.
func Fig5(cfg Fig5Config) ([]Fig5Point, error) { return experiments.Fig5(cfg) }

// PaperMicroFaaSJoules is the paper's published MicroFaaS energy per
// function (Sec V), for comparisons in user code.
const PaperMicroFaaSJoules = model.PaperMicroFaaSJoulesPerFunc

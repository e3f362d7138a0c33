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
//     HTTP gateway via ServeGateway.
//   - NewMicroFaaSSim / NewConventionalSim build the paper's two
//     evaluation clusters on a deterministic discrete-event simulator.
//   - The Fig*/Headline/TableII functions regenerate the paper's figures
//     and tables (see EXPERIMENTS.md for measured-vs-paper values).
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
	"microfaas/internal/tco"
	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
	"microfaas/internal/tracing"
	"microfaas/internal/workload"
)

// --- Live clusters ---

// LiveOptions configures StartLiveCluster.
type LiveOptions = cluster.LiveOptions

// LiveCluster is a running in-process MicroFaaS deployment.
type LiveCluster = cluster.Live

// StartLiveCluster boots backing services, workers, and the orchestration
// platform on loopback TCP. Always Close the returned cluster.
func StartLiveCluster(opts LiveOptions) (*LiveCluster, error) {
	return cluster.StartLive(opts)
}

// Gateway is an HTTP FaaS endpoint over a cluster's orchestrator.
type Gateway = gateway.Server

// GatewayOptions configures a gateway beyond its orchestrator (timeout,
// sim/live mode label, telemetry backing /metrics and /events).
type GatewayOptions = gateway.Options

// ServeGateway exposes a live cluster over HTTP on addr (e.g.
// "127.0.0.1:8080"); it returns the gateway and its bound address. The
// cluster's telemetry (if enabled) backs the gateway's /metrics and
// /events routes automatically.
func ServeGateway(l *LiveCluster, addr string, timeout time.Duration) (*Gateway, string, error) {
	gw, err := gateway.NewWithOptions(l.Orch, gateway.Options{
		Timeout:   timeout,
		Mode:      "live",
		Telemetry: l.Telemetry,
	})
	if err != nil {
		return nil, "", err
	}
	bound, err := gw.Listen(addr)
	if err != nil {
		return nil, "", err
	}
	return gw, bound, nil
}

// NewGateway builds an HTTP gateway over any orchestrator — live or
// simulated — without binding it to a port; call Listen to bind, or
// mount Handler on a server of your own.
func NewGateway(orch *Orchestrator, opts GatewayOptions) (*Gateway, error) {
	return gateway.NewWithOptions(orch, opts)
}

// --- Sharded control plane ---

// ShardPlane is the consistent-hash load-balancer tier in front of N
// orchestrator shards: it routes invocations by key (bounded-load
// hashing), rebalances ring weights, and steals queued work from
// backlogged shards. See ARCHITECTURE.md's shard-tier section.
type ShardPlane = shard.Plane

// ShardPlaneConfig tunes a ShardPlane (virtual nodes, bounded-load
// factor, stealing, rebalancing).
type ShardPlaneConfig = shard.Config

// ShardStealConfig and ShardRebalanceConfig tune the plane's capacity
// aggregator.
type (
	ShardStealConfig     = shard.StealConfig
	ShardRebalanceConfig = shard.RebalanceConfig
)

// ShardStatus is one shard's capacity snapshot (gateway /shards,
// faasctl shards).
type ShardStatus = shard.ShardStatus

// ShardMembershipConfig enables the plane's health checker and dynamic
// membership: probed shards move up → suspect → dead as heartbeats go
// missing, dead shards drain their queued work into survivors, and
// recovered shards rejoin the ring after a streak of healthy probes.
type ShardMembershipConfig = shard.MembershipConfig

// ShardState is a shard's membership state as the health checker sees
// it: ShardUp, ShardSuspect, or ShardDead.
type ShardState = shard.ShardState

// The membership states a ShardPlane reports per shard.
const (
	ShardUp      = shard.ShardUp
	ShardSuspect = shard.ShardSuspect
	ShardDead    = shard.ShardDead
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

// NewShardedGateway fronts a whole shard plane with one HTTP gateway:
// /invoke routes through the consistent-hash tier, the read endpoints
// cover every shard in the same shapes NewGateway serves for one, and
// /shards administers the plane.
func NewShardedGateway(plane *ShardPlane, opts GatewayOptions) (*Gateway, error) {
	return gateway.NewSharded(plane, opts)
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

// --- Telemetry ---

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

// InvocationEvent is one entry of the gateway's /events stream.
type InvocationEvent = telemetry.Event

// --- Tracing ---

// Tracer records per-invocation lifecycle spans; pass one via
// LiveOptions.Tracer or SimOptions.Tracer and read it back through a
// Gateway's /traces routes or directly. Nil disables tracing with zero
// overhead — seeded sim runs are bit-identical either way.
type Tracer = tracing.Tracer

// TracerConfig tunes a Tracer's sampling and retention bounds.
type TracerConfig = tracing.Config

// InvocationTrace is one committed trace: a root invocation span plus
// its lifecycle child spans.
type InvocationTrace = tracing.Trace

// TraceSpan is one span of an InvocationTrace.
type TraceSpan = tracing.Span

// TraceSummary is a trace's critical-path breakdown: per-phase latency
// and energy that sum to the invocation's end-to-end totals.
type TraceSummary = tracing.Summary

// NewTracer returns a sample-everything tracer with default bounds.
func NewTracer() *Tracer { return tracing.New() }

// NewTracerWithConfig returns a tracer with explicit sampling/bounds.
func NewTracerWithConfig(cfg TracerConfig) *Tracer { return tracing.NewWithConfig(cfg) }

// SummarizeTrace computes a trace's critical-path phase breakdown.
func SummarizeTrace(tr InvocationTrace) TraceSummary { return tracing.Summarize(tr) }

// WriteChromeTrace dumps traces in Chrome trace_event format, loadable
// in chrome://tracing or Perfetto.
func WriteChromeTrace(w io.Writer, traces []InvocationTrace) error {
	return tracing.WriteChromeTrace(w, traces)
}

// SBCPowerModel maps an SBC worker's operating state to its power draw;
// PowerState enumerates the states. Together they let user code derive
// joules from trace records independently of the metered counters (see
// examples/faulttolerance for the cross-check).
type (
	SBCPowerModel = power.SBCModel
	PowerState    = power.State
)

// Worker operating states for SBCPowerModel.Power.
const (
	PowerOff     = power.Off
	PowerBooting = power.Booting
	PowerIdle    = power.Idle
	PowerBusy    = power.Busy
)

// DefaultSBCPowerModel returns the BeagleBone Black draw constants from
// the paper's Appendix.
func DefaultSBCPowerModel() SBCPowerModel { return power.DefaultSBCModel() }

// --- Dynamic power management ---

// PowerPolicy tunes the dynamic power manager: idle timeout before a
// worker is power-gated, minimum-up hysteresis, and an optional cluster
// watt budget. Pass one via LiveOptions.Power or SimOptions.Power to turn
// power management on; leave nil for the static per-job power cycle.
type PowerPolicy = powermgr.Policy

// PowerManager owns worker power states when a PowerPolicy is set: it
// wakes powered-down workers on demand, powers idle ones down, and
// enforces the watt budget. Reach a running cluster's manager through
// LiveCluster.PowerMgr / SimCluster.PowerMgr or a gateway's /power route.
type PowerManager = powermgr.Manager

// PowerStatus is a PowerManager snapshot: per-node power states, the
// active cap, and cap-parked wakes.
type PowerStatus = powermgr.Status

// AssignPolicy selects how the orchestrator places jobs on workers.
type AssignPolicy = core.AssignPolicy

// Assignment policies for Orchestrator configuration. AssignEnergyAware
// pairs with a PowerPolicy: it packs load onto powered workers so idle
// ones can be power-gated.
const (
	AssignRoundRobin  = core.AssignRoundRobin
	AssignRandom      = core.AssignRandom
	AssignLeastLoaded = core.AssignLeastLoaded
	AssignEnergyAware = core.AssignEnergyAware
)

// ParseAssignPolicy maps a policy name ("round-robin", "random",
// "least-loaded", "energy-aware") to its AssignPolicy.
func ParseAssignPolicy(s string) (AssignPolicy, error) { return core.ParsePolicy(s) }

// --- Simulated clusters ---

// SimOptions configures a simulated cluster.
type SimOptions = cluster.SimConfig

// SimCluster is a discrete-event MicroFaaS or conventional cluster.
type SimCluster = cluster.Sim

// SimStats summarizes a drained simulation run.
type SimStats = cluster.SuiteStats

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

// WorkloadEnv carries backing-service addresses for direct invocation.
type WorkloadEnv = workload.Env

// Functions returns the 17-function workload suite.
func Functions() []WorkloadFunction { return workload.All() }

// FunctionNames returns the suite's sorted names.
func FunctionNames() []string { return workload.Names() }

// FunctionSpec is a function's calibrated performance model.
type FunctionSpec = model.FunctionSpec

// FunctionSpecs returns the calibrated Table-I performance models.
func FunctionSpecs() []FunctionSpec { return model.Functions() }

// Record is one collected invocation; FunctionStats a per-function summary.
type (
	Record        = trace.Record
	FunctionStats = trace.FunctionStats
)

// Orchestrator is the cluster orchestration platform (the OP of Sec IV-D).
type Orchestrator = core.Orchestrator

// InvocationResult is one completed invocation as delivered to
// Orchestrator.SubmitAsync callbacks.
type InvocationResult = core.Result

// WorkerHealth is one worker's failure-tracking snapshot, as returned by
// Orchestrator.Health: breaker state, failure counters, queue depth.
type WorkerHealth = core.WorkerHealth

// BreakerState is a worker circuit-breaker state (see WorkerHealth.State).
type BreakerState = core.BreakerState

// Circuit-breaker states as reported in WorkerHealth.
const (
	BreakerClosed   = core.BreakerClosed
	BreakerOpen     = core.BreakerOpen
	BreakerHalfOpen = core.BreakerHalfOpen
)

// FaultSpec injects worker-level faults (hang / error / slow, seeded) into
// live TCP workers; pass it via LiveOptions.Faults to exercise the failure
// path end-to-end.
type FaultSpec = node.FaultSpec

// --- Paper experiments ---

// Fig1Row, Fig3Row, Fig4Result, Fig5Point and friends are the structured
// results of the paper's figures; see internal/experiments for details.
type (
	Fig1Row           = experiments.Fig1Row
	Fig3Config        = experiments.Fig3Config
	Fig3Row           = experiments.Fig3Row
	Fig4Config        = experiments.Fig4Config
	Fig4Result        = experiments.Fig4Result
	Fig5Config        = experiments.Fig5Config
	Fig5Point         = experiments.Fig5Point
	HeadlineConfig    = experiments.HeadlineConfig
	HeadlineResult    = experiments.HeadlineResult
	AblationResult    = experiments.AblationResult
	TCOComparison     = tco.Comparison
	RackScaleConfig   = experiments.RackScaleConfig
	RackScaleResult   = experiments.RackScaleResult
	LoadSweepConfig   = experiments.LoadSweepConfig
	LoadSweepPoint    = experiments.LoadSweepPoint
	KeepWarmConfig    = experiments.KeepWarmConfig
	KeepWarmPoint     = experiments.KeepWarmPoint
	DiurnalConfig     = experiments.DiurnalConfig
	DiurnalResult     = experiments.DiurnalResult
	PowerMgmtConfig   = experiments.PowerMgmtConfig
	PowerMgmtResult   = experiments.PowerMgmtResult
	SensitivityConfig = experiments.SensitivityConfig
	SensitivityResult = experiments.SensitivityResult
	BootImpactConfig  = experiments.BootImpactConfig
	BootImpactRow     = experiments.BootImpactRow
	ShardedRackConfig = experiments.ShardedRackConfig
	ShardedRackResult = experiments.ShardedRackResult
	ShardedArm        = experiments.ShardedArm
)

// Fig1 returns the worker-OS boot-time development timeline.
func Fig1() []Fig1Row { return experiments.Fig1() }

// Fig3 measures the per-function runtime split on both clusters.
func Fig3(cfg Fig3Config) ([]Fig3Row, error) { return experiments.Fig3(cfg) }

// Fig4 sweeps VM count on the rack server, reporting throughput and
// energy per function.
func Fig4(cfg Fig4Config) (Fig4Result, error) { return experiments.Fig4(cfg) }

// Fig5 measures cluster power versus active worker count.
func Fig5(cfg Fig5Config) ([]Fig5Point, error) { return experiments.Fig5(cfg) }

// Headline reproduces Sec V's throughput-matched headline comparison.
func Headline(cfg HeadlineConfig) (HeadlineResult, error) { return experiments.Headline(cfg) }

// TableII computes the 5-year TCO comparison under the paper's Appendix
// assumptions.
func TableII() ([]TCOComparison, error) { return tco.TableII() }

// RackScale simulates the Table II racks (989 SBCs vs 41 servers) and
// measures their throughput and power.
func RackScale(cfg RackScaleConfig) (RackScaleResult, error) { return experiments.RackScale(cfg) }

// ShardedRack measures the sharded control plane at full scale: 64
// shards × 1100 SBCs behind the consistent-hash tier, four arms
// isolating bounded-load routing and cross-shard work stealing.
func ShardedRack(cfg ShardedRackConfig) (ShardedRackResult, error) {
	return experiments.ShardedRack(cfg)
}

// LoadSweep measures latency and energy per function on both clusters
// under an open arrival process at fractions of matched capacity.
func LoadSweep(cfg LoadSweepConfig) ([]LoadSweepPoint, error) { return experiments.LoadSweep(cfg) }

// KeepWarm prices the warm-pool trade the paper refuses: latency and
// energy per function under several keep-warm windows.
func KeepWarm(cfg KeepWarmConfig) ([]KeepWarmPoint, error) { return experiments.KeepWarm(cfg) }

// Diurnal replays a synthetic day into both clusters and compares their
// daily energy bills.
func Diurnal(cfg DiurnalConfig) (DiurnalResult, error) { return experiments.Diurnal(cfg) }

// PowerMgmt compares the dynamic power manager against the per-job power
// cycle and an always-on baseline across utilization levels.
func PowerMgmt(cfg PowerMgmtConfig) (PowerMgmtResult, error) { return experiments.PowerMgmt(cfg) }

// Sensitivity re-measures the headline energy comparison under random
// perturbations of the calibrated service times.
func Sensitivity(cfg SensitivityConfig) (SensitivityResult, error) {
	return experiments.Sensitivity(cfg)
}

// BootImpact measures the cluster-level value of each Fig 1 worker-OS
// boot optimization.
func BootImpact(cfg BootImpactConfig) ([]BootImpactRow, error) {
	return experiments.BootImpact(cfg)
}

// AblationCryptoAccel, AblationGigE, and AblationNoReboot quantify the
// design variations the paper's discussion motivates. parallel bounds the
// worker pool running the baseline and modified arms (<=0 = GOMAXPROCS,
// 1 = serial; results are identical at any value).
func AblationCryptoAccel(speedup float64, seed int64, invocations, parallel int) (AblationResult, error) {
	return experiments.AblationCryptoAccel(speedup, seed, invocations, parallel)
}

// AblationGigE upgrades the SBC NICs to Gigabit Ethernet.
func AblationGigE(seed int64, invocations, parallel int) (AblationResult, error) {
	return experiments.AblationGigE(seed, invocations, parallel)
}

// AblationNoReboot disables the reboot between jobs.
func AblationNoReboot(seed int64, invocations, parallel int) (AblationResult, error) {
	return experiments.AblationNoReboot(seed, invocations, parallel)
}

// RunParallel fans n independent tasks across a bounded pool of workers
// goroutines and returns results in index order (see
// internal/experiments/runner.go for the determinism contract).
func RunParallel[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return experiments.RunParallel(workers, n, fn)
}

// DeriveSeed maps a base seed and task index to a decorrelated per-task
// seed (splitmix64).
func DeriveSeed(base int64, i int) int64 { return experiments.DeriveSeed(base, i) }

// --- Paper constants (Sec V) ---

// Published aggregates, re-exported for comparisons in user code.
const (
	PaperSBCThroughput          = model.PaperSBCThroughput
	PaperVMThroughput           = model.PaperVMThroughput
	PaperMicroFaaSJoules        = model.PaperMicroFaaSJoulesPerFunc
	PaperConventionalJoules     = model.PaperConventionalJoulesPerFunc
	PaperPeakConventionalJoules = model.PaperPeakConventionalJoulesPerFunc
	PaperEfficiencyGain         = model.PaperEnergyEfficiencyGain
)

package experiments

import (
	"io"
	"strconv"

	"microfaas/internal/cluster"
	"microfaas/internal/core"
	"microfaas/internal/model"
	"microfaas/internal/shard"
)

// ShardedRack measures the sharded control plane (internal/shard) at
// the scale one orchestrator cannot reach: a multi-rack MicroFaaS
// deployment split into N control-plane shards behind the
// consistent-hash load-balancer tier, sized past one million functions
// per minute. Four arms isolate the tier's two mechanisms:
//
//	uniform/full   bounded-load routing + stealing (the headline)
//	uniform/plain  plain consistent hashing, no aggregator
//	hotkey/plain   30% of traffic on one key, no relief — p99 blows up
//	hotkey/steal   same skew with work stealing — p99 recovers
//
// Every arm is an independent seeded simulation (one engine per arm,
// all shards of an arm inside it), so arms fan across cores with
// derived seeds and the report is byte-identical at any parallelism.
type ShardedRackConfig struct {
	// Shards is the control-plane shard count (default 64).
	Shards int
	// WorkersPerShard sizes each shard's SBC partition (default 1100;
	// 64 shards × 1100 SBCs ≈ 1.4M func/min of raw capacity).
	WorkersPerShard int
	// JobsPerWorker sets run length (default 4).
	JobsPerWorker int
	// KeySpace is the number of distinct routing keys for uniform
	// traffic (default 4096).
	KeySpace int
	// RunConfig derives every arm's seed and bounds the pool running arms
	// across cores.
	RunConfig
}

// shardedHotPermille is the share of hot-arm traffic pinned to a single
// key, in tenths of a percent (30%).
const shardedHotPermille = 300

// ShardedArm is one arm's aggregate result.
type ShardedArm struct {
	// Name identifies the arm (traffic / routing mode).
	Name string
	// Completed counts settled invocations; Errors failed ones.
	Completed, Errors int
	// FuncPerMin is completed work over the makespan (ramp and drain
	// tail included); SustainedPerMin is the mid-run completion rate
	// while every worker is busy — the capacity headline.
	FuncPerMin      float64
	SustainedPerMin float64
	// P50S/P99S are end-to-end latency percentiles in seconds.
	P50S, P99S float64
	// Stolen counts cross-shard migrations the aggregator made.
	Stolen int64
	// JoulesPerFunc is metered energy per completed invocation.
	JoulesPerFunc float64
	// MakespanS is the arm's virtual duration in seconds.
	MakespanS float64
}

// ShardedRackResult is the four-arm comparison.
type ShardedRackResult struct {
	// Shards and SBCs record the per-arm sizing.
	Shards, SBCs int
	// Arms holds the four arms in fixed order: uniform/full,
	// uniform/plain, hotkey/plain, hotkey/steal.
	Arms []ShardedArm
}

// shardedArmSpec fixes one arm's traffic pattern and plane config.
type shardedArmSpec struct {
	name  string
	hot   bool
	plane shard.Config
}

// shardedArms returns the four arm specs in report order.
func shardedArms() []shardedArmSpec {
	full := shard.Config{
		Steal:     shard.StealConfig{Enabled: true, MaxPerTick: 4096},
		Rebalance: shard.RebalanceConfig{Enabled: true},
	}
	plain := shard.Config{BoundFactor: -1}
	steal := shard.Config{
		BoundFactor: -1,
		Steal:       shard.StealConfig{Enabled: true, MaxPerTick: 4096},
	}
	return []shardedArmSpec{
		{name: "uniform/full", hot: false, plane: full},
		{name: "uniform/plain", hot: false, plane: plain},
		{name: "hotkey/plain", hot: true, plane: plain},
		{name: "hotkey/steal", hot: true, plane: steal},
	}
}

// ShardedRack runs the four arms (in parallel when configured) and
// reports throughput, tail latency, and steal volume per arm.
func ShardedRack(cfg ShardedRackConfig) (ShardedRackResult, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 64
	}
	if cfg.WorkersPerShard <= 0 {
		cfg.WorkersPerShard = 1100
	}
	if cfg.JobsPerWorker <= 0 {
		cfg.JobsPerWorker = 4
	}
	if cfg.KeySpace <= 0 {
		cfg.KeySpace = 4096
	}
	res := ShardedRackResult{Shards: cfg.Shards, SBCs: cfg.Shards * cfg.WorkersPerShard}
	specs := shardedArms()
	arms, err := RunParallel(Parallelism(cfg.Parallel), len(specs), func(i int) (ShardedArm, error) {
		return runShardedArm(cfg, specs[i], DeriveSeed(cfg.Seed, i))
	})
	if err != nil {
		return ShardedRackResult{}, err
	}
	res.Arms = arms
	return res, nil
}

// runShardedArm builds one sharded sim, submits the arm's traffic
// open-loop (everything at virtual zero, like RunSuite), drains it, and
// summarizes.
func runShardedArm(cfg ShardedRackConfig, spec shardedArmSpec, seed int64) (ShardedArm, error) {
	s, err := cluster.NewShardedMicroFaaSSim(cfg.Shards, cfg.WorkersPerShard, cluster.SimConfig{
		Seed:   seed,
		Policy: core.AssignLeastLoaded,
	}, spec.plane)
	if err != nil {
		return ShardedArm{}, err
	}
	fns := model.Functions()
	total := cfg.Shards * cfg.WorkersPerShard * cfg.JobsPerWorker
	for j := 0; j < total; j++ {
		key := "u/" + strconv.Itoa(j%cfg.KeySpace)
		// The hot arms pin a fixed slice of traffic to one key,
		// deterministically: job j is hot iff j mod 1000 < shardedHotPermille.
		if spec.hot && j%1000 < shardedHotPermille {
			key = "hot"
		}
		s.Plane.Submit(key, fns[j%len(fns)].Name, nil, nil)
	}
	if err := s.Run(); err != nil {
		return ShardedArm{}, err
	}
	st := s.Stats()
	return ShardedArm{
		Name:            spec.name,
		Completed:       st.Completed,
		Errors:          st.Errors,
		FuncPerMin:      st.ThroughputPerMin,
		SustainedPerMin: st.SustainedPerMin,
		P50S:            st.P50.Seconds(),
		P99S:            st.P99.Seconds(),
		Stolen:          st.Stolen,
		JoulesPerFunc:   st.JoulesPerFunction,
		MakespanS:       st.MakespanS,
	}, nil
}

// WriteShardedRack prints the four-arm comparison.
func WriteShardedRack(w io.Writer, r ShardedRackResult) error {
	out := &printer{w: w}
	out.f(`Sharded control plane (%d shards × %d SBCs = %d workers):
  arm              completed   func/min  sustained     p50 s     p99 s    stolen   J/func
`, r.Shards, r.SBCs/r.Shards, r.SBCs)
	for _, a := range r.Arms {
		out.f("  %-14s %10d %10.0f %10.0f %9.2f %9.2f %9d %8.2f\n",
			a.Name, a.Completed, a.FuncPerMin, a.SustainedPerMin, a.P50S, a.P99S, a.Stolen, a.JoulesPerFunc)
	}
	return out.err
}

package experiments

import (
	"fmt"
	"io"

	"microfaas/internal/cluster"
	"microfaas/internal/model"
	"microfaas/internal/power"
	"microfaas/internal/tco"
)

// RackScale simulates the hypothetical racks behind Table II — 989 SBCs
// versus 41 conventional servers — and measures whether they really are
// throughput-equivalent under this repository's calibrated model, along
// with their power draw under load. The paper *estimates* the 989-node
// sizing; this experiment checks the estimate end-to-end with thousands of
// concurrently simulated workers.
type RackScaleResult struct {
	// MicroFaaS rack.
	SBCs             int
	SBCThroughput    float64 // func/min
	SBCPowerW        float64 // mean cluster power under full load, incl. ToR switches
	SBCJoulesPerFunc float64
	// Conventional rack.
	Servers             int
	VMsPerServer        int
	ServerThroughput    float64
	ServerPowerW        float64
	ServerJoulesPerFunc float64
}

// RackScaleConfig sizes the runs.
type RackScaleConfig struct {
	// SBCs (default 989) and Servers (default 41) follow Table II.
	SBCs, Servers int
	// VMsPerServer defaults to the saturation point (16).
	VMsPerServer int
	// JobsPerWorker sets run length (default 8).
	JobsPerWorker int
	// RunConfig derives every shard's seed and bounds the pool running
	// shards across cores.
	RunConfig
}

// rackScaleShards splits each rack into independent sub-simulations
// (clamped to the node count). MicroFaaS SBCs never interact and
// conventional servers only couple VMs on the same host, so sharding by
// node group is exact, not an approximation. The shard count is a
// constant — never derived from Parallel — so the report is byte-identical
// at any parallelism.
const rackScaleShards = 16

// rackShardStats is the subset of cluster.SuiteStats a rack merge needs.
type rackShardStats struct {
	completed int
	energyJ   float64
	makespanS float64
}

// RackScale runs both racks to completion and reports throughput and
// power. Switch power (Appendix: 40.87 W per 48 ports) is added to both
// racks' totals, as the paper's TCO energy row does.
//
// Each rack is sharded into independent sub-simulations that run on the
// parallel runner with derived per-shard seeds; shard results merge in
// index order (completions and energy sum, the rack makespan is the
// slowest shard's).
func RackScale(cfg RackScaleConfig) (RackScaleResult, error) {
	res := RackScaleResult{
		SBCs:         cfg.SBCs,
		Servers:      cfg.Servers,
		VMsPerServer: cfg.VMsPerServer,
	}
	if res.SBCs <= 0 {
		res.SBCs = tco.PaperMicroFaaSNodes
	}
	if res.Servers <= 0 {
		res.Servers = tco.PaperConventionalNodes
	}
	if res.VMsPerServer <= 0 {
		res.VMsPerServer = 16 // the Fig 4 saturation knee
	}
	jobs := cfg.JobsPerWorker
	if jobs <= 0 {
		jobs = 8
	}
	assumptions := tco.PaperAssumptions()
	switchW := func(nodes int) float64 {
		return float64(tco.Switches(nodes, assumptions)) * float64(power.DefaultSwitchModel().Power())
	}
	workers := Parallelism(cfg.Parallel)

	// rack runs one rack of nodes — SBCs, or servers: VMs share a host's
	// cores but servers share nothing — split into shards. Shard i seeds its
	// own engine with DeriveSeed(seed, seedBase+i), so shard streams are
	// decorrelated and stable, and the two racks never reuse a stream.
	rack := func(nodes, seedBase int, build func(n int, seed int64) (*cluster.Sim, error)) (perMin, watts, joulesPer float64, err error) {
		k := min(rackScaleShards, nodes)
		stats, err := RunParallel(workers, k, func(i int) (rackShardStats, error) {
			s, err := build(shardSize(nodes, k, i), DeriveSeed(cfg.Seed, seedBase+i))
			if err != nil {
				return rackShardStats{}, err
			}
			// jobs per worker ≈ jobsPerFunction×17/workers → jobsPerFunction = jobs×workers/17.
			perFunction := max(1, jobs*len(s.Workers)/len(model.Functions()))
			if _, err := s.RunSuite(perFunction, nil); err != nil {
				return rackShardStats{}, err
			}
			st := s.Stats()
			return rackShardStats{completed: st.Completed, energyJ: st.TotalEnergyJ, makespanS: st.MakespanS}, nil
		})
		if err != nil {
			return 0, 0, 0, err
		}
		st := mergeRackShards(stats)
		return float64(st.completed) / (st.makespanS / 60), st.energyJ/st.makespanS + switchW(nodes),
			(st.energyJ + switchW(nodes)*st.makespanS) / float64(st.completed), nil
	}
	var err error
	res.SBCThroughput, res.SBCPowerW, res.SBCJoulesPerFunc, err = rack(res.SBCs, 0, func(n int, seed int64) (*cluster.Sim, error) {
		return cluster.NewMicroFaaSSim(n, cluster.SimConfig{Seed: seed})
	})
	if err != nil {
		return RackScaleResult{}, err
	}
	res.ServerThroughput, res.ServerPowerW, res.ServerJoulesPerFunc, err = rack(res.Servers, 1<<16, func(n int, seed int64) (*cluster.Sim, error) {
		return cluster.NewConventionalRackSim(n, res.VMsPerServer, cluster.SimConfig{Seed: seed})
	})
	if err != nil {
		return RackScaleResult{}, err
	}
	return res, nil
}

// shardSize distributes n nodes over k shards as evenly as possible
// (the first n%k shards get one extra).
func shardSize(n, k, i int) int {
	size := n / k
	if i < n%k {
		size++
	}
	return size
}

// mergeRackShards folds shard results in index order: completions and
// energy sum; the rack's makespan is the slowest shard's (all shards
// start at virtual zero).
func mergeRackShards(shards []rackShardStats) rackShardStats {
	var out rackShardStats
	for _, s := range shards {
		out.completed += s.completed
		out.energyJ += s.energyJ
		if s.makespanS > out.makespanS {
			out.makespanS = s.makespanS
		}
	}
	return out
}

// WriteRackScale prints the rack-scale comparison.
func WriteRackScale(w io.Writer, r RackScaleResult) error {
	_, err := fmt.Fprintf(w, `Rack scale (Table II's throughput-equivalence assumption, measured):
  MicroFaaS rack:     %4d SBCs                 %10.0f func/min  %8.0f W  %6.2f J/func
  Conventional rack:  %4d servers × %2d VMs     %10.0f func/min  %8.0f W  %6.2f J/func
  throughput ratio (MicroFaaS/conventional): %.2f
  power ratio under load (conventional/MicroFaaS): %.1fx
`,
		r.SBCs, r.SBCThroughput, r.SBCPowerW, r.SBCJoulesPerFunc,
		r.Servers, r.VMsPerServer, r.ServerThroughput, r.ServerPowerW, r.ServerJoulesPerFunc,
		r.SBCThroughput/r.ServerThroughput,
		r.ServerPowerW/r.SBCPowerW)
	return err
}

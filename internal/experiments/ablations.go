package experiments

import (
	"fmt"
	"io"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/model"
	"microfaas/internal/netsim"
	"microfaas/internal/node"
)

// This file implements the ablations the paper's discussion motivates
// (Sec V): a cryptographic accelerator for the hash/AES kernels, a
// Gigabit-Ethernet NIC upgrade for the SBCs, and — as the flip side of the
// Sec III-a isolation argument — disabling the reboot between jobs.

// AblationResult compares baseline and modified MicroFaaS clusters.
type AblationResult struct {
	Name string
	// Baseline/Modified throughput (func/min) and energy (J/func) of the
	// 10-SBC cluster.
	BaselineThroughput, ModifiedThroughput float64
	BaselineJoules, ModifiedJoules         float64
	// FunctionDeltas lists the per-function mean runtime change for the
	// functions the ablation targets.
	FunctionDeltas []FunctionDelta
}

// FunctionDelta is one targeted function's before/after mean runtime.
type FunctionDelta struct {
	Function string
	Before   time.Duration
	After    time.Duration
}

// Speedup is the before/after throughput ratio (>1 = ablation helps).
func (r AblationResult) Speedup() float64 {
	if r.BaselineThroughput == 0 {
		return 0
	}
	return r.ModifiedThroughput / r.BaselineThroughput
}

// ablationArm is one side of an ablation pair: the run's aggregate stats
// plus its per-function means.
type ablationArm struct {
	stats cluster.SuiteStats
	byFn  map[string]time.Duration
}

// runPair measures the baseline cluster and a modified one — the two
// independent arms run on the parallel runner.
func runPair(name string, run RunConfig, invocations int, modified cluster.SimConfig, targets []string) (AblationResult, error) {
	if invocations <= 0 {
		invocations = 40
	}
	modified.Seed = run.Seed
	arms, err := RunParallel(Parallelism(run.Parallel), 2, func(i int) (ablationArm, error) {
		cfg := cluster.SimConfig{Seed: run.Seed}
		if i == 1 {
			cfg = modified
		}
		s, err := cluster.NewMicroFaaSSim(model.SBCCount, cfg)
		if err != nil {
			return ablationArm{}, err
		}
		coll, err := s.RunSuite(invocations, nil)
		if err != nil {
			return ablationArm{}, err
		}
		byFn := map[string]time.Duration{}
		for _, st := range coll.ByFunction() {
			byFn[st.Function] = st.MeanTotal
		}
		return ablationArm{stats: s.Stats(), byFn: byFn}, nil
	})
	if err != nil {
		return AblationResult{}, err
	}
	baseSt, modSt := arms[0].stats, arms[1].stats
	res := AblationResult{
		Name:               name,
		BaselineThroughput: baseSt.ThroughputPerMin,
		ModifiedThroughput: modSt.ThroughputPerMin,
		BaselineJoules:     baseSt.JoulesPerFunction,
		ModifiedJoules:     modSt.JoulesPerFunction,
	}
	for _, fn := range targets {
		res.FunctionDeltas = append(res.FunctionDeltas, FunctionDelta{
			Function: fn, Before: arms[0].byFn[fn], After: arms[1].byFn[fn],
		})
	}
	return res, nil
}

// CryptoKernels are the functions a cryptographic accelerator offloads.
var CryptoKernels = []string{"CascSHA", "CascMD5", "AES128"}

// AblationCryptoAccel models adding a crypto accelerator to the SBC
// (Sec V: "adding a cryptographic accelerator might significantly reduce
// the runtime of CascSHA"): the crypto kernels' ARM compute time shrinks
// by the given factor.
func AblationCryptoAccel(speedup float64, run RunConfig, invocations int) (AblationResult, error) {
	if speedup <= 1 {
		return AblationResult{}, fmt.Errorf("experiments: accelerator speedup must exceed 1, got %v", speedup)
	}
	specs := model.Functions()
	targetSet := map[string]bool{}
	for _, n := range CryptoKernels {
		targetSet[n] = true
	}
	for i := range specs {
		if targetSet[specs[i].Name] {
			specs[i].WorkARM = time.Duration(float64(specs[i].WorkARM) / speedup)
		}
	}
	return runPair(fmt.Sprintf("crypto-accelerator %.0fx", speedup), run, invocations,
		cluster.SimConfig{Specs: specs}, CryptoKernels)
}

// BulkTransferFunctions are the functions the NIC upgrade targets.
var BulkTransferFunctions = []string{"COSGet", "COSPut"}

// AblationGigE models upgrading the SBC NIC from Fast Ethernet to Gigabit
// (Sec V: "would likely reduce the overhead of functions like COSGet").
func AblationGigE(run RunConfig, invocations int) (AblationResult, error) {
	link := netsim.GigabitEthernet()
	return runPair("gigabit NIC upgrade", run, invocations,
		cluster.SimConfig{BoardConfig: node.BoardConfig{Link: &link}}, BulkTransferFunctions)
}

// AblationNoReboot disables the reboot between jobs, quantifying what the
// hardware-reset isolation guarantee of Sec III-a costs in throughput and
// energy. (The modified cluster sacrifices the clean-environment
// guarantee; this is the trade the paper's design explicitly refuses.)
func AblationNoReboot(run RunConfig, invocations int) (AblationResult, error) {
	return runPair("no reboot between jobs", run, invocations,
		cluster.SimConfig{BoardConfig: node.BoardConfig{DisableReboot: true}}, nil)
}

// WriteAblation prints one ablation's comparison.
func WriteAblation(w io.Writer, r AblationResult) error {
	out := &printer{w: w}
	out.f("Ablation: %s\n  throughput: %.1f -> %.1f func/min (%.2fx)\n  energy:     %.2f -> %.2f J/func\n",
		r.Name, r.BaselineThroughput, r.ModifiedThroughput, r.Speedup(),
		r.BaselineJoules, r.ModifiedJoules)
	for _, d := range r.FunctionDeltas {
		out.f("  %-12s %8.1f ms -> %8.1f ms\n",
			d.Function, ms(d.Before), ms(d.After))
	}
	return out.err
}

// renderAblations prints the three ablation studies back to back.
func renderAblations(w io.Writer, p Params) error {
	for _, ablate := range []func(RunConfig, int) (AblationResult, error){
		func(run RunConfig, n int) (AblationResult, error) { return AblationCryptoAccel(8, run, n) },
		AblationGigE,
		AblationNoReboot,
	} {
		res, err := ablate(p.RunConfig, p.N)
		if err != nil {
			return err
		}
		if err := WriteAblation(w, res); err != nil {
			return err
		}
	}
	return nil
}

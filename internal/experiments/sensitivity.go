package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"microfaas/internal/model"
)

// Sensitivity asks how much the headline conclusion depends on this
// repository's calibration. The per-function service times are fitted to
// the paper's aggregates (DESIGN.md §4); a reproduction should show that
// the 5.6× energy-efficiency verdict survives calibration error. Each
// trial independently rescales every function's ARM and x86 compute times
// by uniform factors in [1-Spread, 1+Spread] and re-measures the
// throughput-matched energy comparison.
type SensitivityResult struct {
	Trials int
	Spread float64
	// Gain distribution across trials (conventional J/func ÷ MicroFaaS
	// J/func at the paper's 10-SBC / 6-VM configurations).
	MinGain, MedianGain, MaxGain float64
	// TrialsBelowParity counts trials where the conclusion flipped
	// (gain ≤ 1) — should be zero for any plausible spread.
	TrialsBelowParity int
}

// SensitivityConfig sizes the Monte-Carlo run.
type SensitivityConfig struct {
	// Trials (default 30) and Spread (default 0.2 = ±20 %).
	Trials int
	Spread float64
	// InvocationsPerFunction per trial (default 20).
	InvocationsPerFunction int
	// RunConfig derives every trial's perturbation and seed, and bounds
	// the pool fanning trials across cores.
	RunConfig
}

// Sensitivity runs the Monte-Carlo perturbation study.
func Sensitivity(cfg SensitivityConfig) (SensitivityResult, error) {
	trials := cfg.Trials
	if trials <= 0 {
		trials = 30
	}
	spread := cfg.Spread
	if spread == 0 {
		spread = 0.2
	}
	if spread < 0 || spread >= 1 {
		return SensitivityResult{}, fmt.Errorf("experiments: spread %v outside [0,1)", spread)
	}
	inv := cfg.InvocationsPerFunction
	if inv <= 0 {
		inv = 20
	}
	// Each trial perturbs from its own derived-seed RNG stream (instead of
	// one RNG consumed sequentially across trials), so trials are
	// independent tasks: fanning them across cores cannot change any
	// trial's inputs, and serial and parallel runs agree exactly.
	gains, err := RunParallel(Parallelism(cfg.Parallel), trials, func(trial int) (float64, error) {
		rng := rand.New(rand.NewSource(DeriveSeed(cfg.Seed, trial)))
		specs := perturbSpecs(rng, spread)
		return measureGain(specs, inv, cfg.Seed+int64(trial))
	})
	if err != nil {
		return SensitivityResult{}, err
	}
	below := 0
	for _, gain := range gains {
		if gain <= 1 {
			below++
		}
	}
	sort.Float64s(gains)
	return SensitivityResult{
		Trials:            trials,
		Spread:            spread,
		MinGain:           gains[0],
		MedianGain:        gains[len(gains)/2],
		MaxGain:           gains[len(gains)-1],
		TrialsBelowParity: below,
	}, nil
}

// perturbSpecs rescales each function's compute times independently.
func perturbSpecs(rng *rand.Rand, spread float64) []model.FunctionSpec {
	specs := model.Functions()
	scale := func() float64 { return 1 + (rng.Float64()*2-1)*spread }
	for i := range specs {
		specs[i].WorkARM = time.Duration(float64(specs[i].WorkARM) * scale())
		specs[i].WorkX86 = time.Duration(float64(specs[i].WorkX86) * scale())
	}
	return specs
}

// measureGain runs both clusters with the perturbed tables and returns
// conventional J/func ÷ MicroFaaS J/func.
func measureGain(specs []model.FunctionSpec, inv int, seed int64) (float64, error) {
	mf, conv, err := paperPair(inv, RunConfig{Seed: seed, Parallel: 1}, specs)
	if err != nil {
		return 0, err
	}
	mfJ := mf.Stats().JoulesPerFunction
	if mfJ == 0 {
		return 0, fmt.Errorf("experiments: sensitivity trial measured zero energy")
	}
	return conv.Stats().JoulesPerFunction / mfJ, nil
}

// WriteSensitivity prints the study.
func WriteSensitivity(w io.Writer, r SensitivityResult) error {
	_, err := fmt.Fprintf(w, `Calibration sensitivity: %d trials, every function's ARM and x86 compute
times independently rescaled by ±%.0f%%:
  energy-efficiency gain: min %.2fx, median %.2fx, max %.2fx (paper: 5.6x)
  trials where the conclusion flipped (gain <= 1): %d
`,
		r.Trials, r.Spread*100, r.MinGain, r.MedianGain, r.MaxGain, r.TrialsBelowParity)
	return err
}

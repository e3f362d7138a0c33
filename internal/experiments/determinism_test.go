package experiments

import (
	"bytes"
	"reflect"
	"testing"
)

// These are the PR's golden determinism tests: every experiment must
// produce results that are independent of the worker-pool size. A serial
// run (Parallel: 1) and a wide parallel run (Parallel: 8) of the same seed
// must be deep-equal, and two parallel runs must agree with each other —
// if scheduling order ever leaks into results, these fail.

const detSeed = 3

// runTwiceAndCompare invokes fn serially, then twice at Parallel: 8, and
// requires all three results to be deep-equal.
func runTwiceAndCompare[T any](t *testing.T, name string, fn func(parallel int) (T, error)) {
	t.Helper()
	serial, err := fn(1)
	if err != nil {
		t.Fatalf("%s serial: %v", name, err)
	}
	par1, err := fn(8)
	if err != nil {
		t.Fatalf("%s parallel: %v", name, err)
	}
	par2, err := fn(8)
	if err != nil {
		t.Fatalf("%s parallel (2nd): %v", name, err)
	}
	if !reflect.DeepEqual(serial, par1) {
		t.Fatalf("%s: serial and parallel results differ\nserial:   %+v\nparallel: %+v", name, serial, par1)
	}
	if !reflect.DeepEqual(par1, par2) {
		t.Fatalf("%s: two parallel runs differ\nfirst:  %+v\nsecond: %+v", name, par1, par2)
	}
}

func TestDeterminismFig3(t *testing.T) {
	runTwiceAndCompare(t, "fig3", func(p int) ([]Fig3Row, error) {
		return Fig3(Fig3Config{InvocationsPerFunction: 10, RunConfig: RunConfig{Seed: detSeed, Parallel: p}})
	})
}

func TestDeterminismFig4(t *testing.T) {
	runTwiceAndCompare(t, "fig4", func(p int) (Fig4Result, error) {
		return Fig4(Fig4Config{RunConfig: RunConfig{Seed: detSeed, Parallel: p}})
	})
}

func TestDeterminismFig5(t *testing.T) {
	runTwiceAndCompare(t, "fig5", func(p int) ([]Fig5Point, error) {
		return Fig5(Fig5Config{RunConfig: RunConfig{Seed: detSeed, Parallel: p}})
	})
}

func TestDeterminismHeadline(t *testing.T) {
	runTwiceAndCompare(t, "headline", func(p int) (HeadlineResult, error) {
		return Headline(HeadlineConfig{InvocationsPerFunction: 10, RunConfig: RunConfig{Seed: detSeed, Parallel: p}})
	})
}

func TestDeterminismSensitivity(t *testing.T) {
	runTwiceAndCompare(t, "sensitivity", func(p int) (SensitivityResult, error) {
		return Sensitivity(SensitivityConfig{Trials: 8, InvocationsPerFunction: 5, RunConfig: RunConfig{Seed: detSeed, Parallel: p}})
	})
}

func TestDeterminismLoadSweep(t *testing.T) {
	runTwiceAndCompare(t, "loadsweep", func(p int) ([]LoadSweepPoint, error) {
		return LoadSweep(LoadSweepConfig{RunConfig: RunConfig{Seed: detSeed, Parallel: p}})
	})
}

func TestDeterminismKeepWarm(t *testing.T) {
	runTwiceAndCompare(t, "keepwarm", func(p int) ([]KeepWarmPoint, error) {
		return KeepWarm(KeepWarmConfig{RunConfig: RunConfig{Seed: detSeed, Parallel: p}})
	})
}

func TestDeterminismDiurnal(t *testing.T) {
	runTwiceAndCompare(t, "diurnal", func(p int) (DiurnalResult, error) {
		return Diurnal(DiurnalConfig{RunConfig: RunConfig{Seed: detSeed, Parallel: p}})
	})
}

func TestDeterminismBootImpact(t *testing.T) {
	runTwiceAndCompare(t, "bootimpact", func(p int) ([]BootImpactRow, error) {
		return BootImpact(BootImpactConfig{RunConfig: RunConfig{Seed: detSeed, Parallel: p}})
	})
}

func TestDeterminismRackScale(t *testing.T) {
	runTwiceAndCompare(t, "rackscale", func(p int) (RackScaleResult, error) {
		return RackScale(RackScaleConfig{RunConfig: RunConfig{Seed: detSeed, Parallel: p}})
	})
}

func TestDeterminismAblations(t *testing.T) {
	runTwiceAndCompare(t, "ablation-crypto", func(p int) (AblationResult, error) {
		return AblationCryptoAccel(8, RunConfig{Seed: detSeed, Parallel: p}, 10)
	})
	runTwiceAndCompare(t, "ablation-gige", func(p int) (AblationResult, error) {
		return AblationGigE(RunConfig{Seed: detSeed, Parallel: p}, 10)
	})
	runTwiceAndCompare(t, "ablation-noreboot", func(p int) (AblationResult, error) {
		return AblationNoReboot(RunConfig{Seed: detSeed, Parallel: p}, 10)
	})
}

// TestDeterminismWriteAll is the end-to-end byte-compare: the full
// `microfaas-sim all` report rendered serially and at Parallel: 8 must be
// byte-identical (two levels of fan-out — sections and intra-section
// trials — both merge in index order).
func TestDeterminismWriteAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite render is slow; skipped in -short")
	}
	render := func(p int) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := WriteAll(&b, Params{N: 10, RunConfig: RunConfig{Seed: detSeed, Parallel: p}}); err != nil {
			t.Fatalf("WriteAll(parallel=%d): %v", p, err)
		}
		return b.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("`all` report differs between serial and parallel renders\nserial %d bytes, parallel %d bytes", len(serial), len(parallel))
	}
}

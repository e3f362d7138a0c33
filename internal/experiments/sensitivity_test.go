package experiments

import (
	"strings"
	"testing"
)

func TestSensitivityVerdictSurvivesPerturbation(t *testing.T) {
	res, err := Sensitivity(SensitivityConfig{Trials: 12, Spread: 0.2, InvocationsPerFunction: 10, RunConfig: RunConfig{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TrialsBelowParity != 0 {
		t.Fatalf("%d of %d trials flipped the conclusion under ±20%% noise", res.TrialsBelowParity, res.Trials)
	}
	// The gain should stay in the same regime as the paper's 5.6x.
	if res.MinGain < 4 || res.MaxGain > 8 {
		t.Fatalf("gain range [%.2f, %.2f] left the plausible regime", res.MinGain, res.MaxGain)
	}
	if res.MedianGain < res.MinGain || res.MedianGain > res.MaxGain {
		t.Fatal("median outside [min,max]")
	}
}

func TestSensitivityWiderSpreadWidensRange(t *testing.T) {
	narrow, err := Sensitivity(SensitivityConfig{Trials: 10, Spread: 0.05, InvocationsPerFunction: 10, RunConfig: RunConfig{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Sensitivity(SensitivityConfig{Trials: 10, Spread: 0.4, InvocationsPerFunction: 10, RunConfig: RunConfig{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if (wide.MaxGain - wide.MinGain) <= (narrow.MaxGain - narrow.MinGain) {
		t.Fatalf("±40%% range %.3f not wider than ±5%% range %.3f",
			wide.MaxGain-wide.MinGain, narrow.MaxGain-narrow.MinGain)
	}
}

func TestSensitivityValidation(t *testing.T) {
	if _, err := Sensitivity(SensitivityConfig{Spread: 1.5}); err == nil {
		t.Fatal("spread >= 1 accepted")
	}
	if _, err := Sensitivity(SensitivityConfig{Spread: -0.1}); err == nil {
		t.Fatal("negative spread accepted")
	}
}

func TestWriteSensitivity(t *testing.T) {
	res, err := Sensitivity(SensitivityConfig{Trials: 3, InvocationsPerFunction: 5, RunConfig: RunConfig{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteSensitivity(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Calibration sensitivity") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestLoadSweepEnergyProportionality(t *testing.T) {
	pts, err := LoadSweep(LoadSweepConfig{
		Fractions: []float64{0.1, 0.5, 0.9},
		Window:    10 * time.Minute,
		RunConfig: RunConfig{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	low, high := pts[0], pts[2]

	// The core claim: at low load the conventional cluster's fixed idle
	// draw dominates. Its J/function must blow up by several x from 90%
	// to 10% load, while MicroFaaS moves by well under 2x.
	convBlowup := low.ConvJoulesPer / high.ConvJoulesPer
	mfBlowup := low.MFJoulesPer / high.MFJoulesPer
	if convBlowup < 3 {
		t.Fatalf("conventional J/func blowup at low load = %.1fx, want >3x", convBlowup)
	}
	if mfBlowup > 2 {
		t.Fatalf("MicroFaaS J/func blowup = %.1fx, want <2x (energy proportionality)", mfBlowup)
	}
	// MicroFaaS must be cheaper per function at every load level.
	for _, p := range pts {
		if p.MFJoulesPer >= p.ConvJoulesPer {
			t.Fatalf("at load %.2f MicroFaaS %.1f J/f >= conventional %.1f",
				p.LoadFraction, p.MFJoulesPer, p.ConvJoulesPer)
		}
	}
}

func TestLoadSweepLatencyGrowsWithLoad(t *testing.T) {
	pts, err := LoadSweep(LoadSweepConfig{
		Fractions: []float64{0.25, 0.9},
		Window:    10 * time.Minute,
		RunConfig: RunConfig{Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Queueing: latency at 90% load must exceed latency at 25% on both
	// clusters (open-system M/G/1-ish behaviour).
	if pts[1].MFMeanLatency <= pts[0].MFMeanLatency {
		t.Fatalf("MicroFaaS latency did not grow with load: %v -> %v",
			pts[0].MFMeanLatency, pts[1].MFMeanLatency)
	}
	if pts[1].ConvMeanLat <= pts[0].ConvMeanLat {
		t.Fatalf("conventional latency did not grow with load: %v -> %v",
			pts[0].ConvMeanLat, pts[1].ConvMeanLat)
	}
	// P95 at least the mean, always.
	for _, p := range pts {
		if p.MFP95Latency < p.MFMeanLatency || p.ConvP95Lat < p.ConvMeanLat {
			t.Fatalf("P95 below mean at load %.2f", p.LoadFraction)
		}
	}
}

func TestLoadSweepCompletesOfferedLoad(t *testing.T) {
	window := 10 * time.Minute
	pts, err := LoadSweep(LoadSweepConfig{Fractions: []float64{0.5}, Window: window, RunConfig: RunConfig{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	// Arrivals at interval I over window W produce ~W/I jobs; everything
	// offered must complete (the load is below capacity).
	expected := int(p.OfferedPerMin * window.Minutes())
	for _, got := range []int{p.MFCompleted, p.ConvCompleted} {
		if got < expected*9/10 || got > expected*11/10 {
			t.Fatalf("completed %d, offered ≈%d", got, expected)
		}
	}
}

func TestLoadSweepValidation(t *testing.T) {
	if _, err := LoadSweep(LoadSweepConfig{Fractions: []float64{0}}); err == nil {
		t.Fatal("zero load accepted")
	}
	if _, err := LoadSweep(LoadSweepConfig{Fractions: []float64{1.5}}); err == nil {
		t.Fatal("overload accepted")
	}
}

func TestWriteLoadSweep(t *testing.T) {
	pts, err := LoadSweep(LoadSweepConfig{Fractions: []float64{0.5}, Window: 5 * time.Minute, RunConfig: RunConfig{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteLoadSweep(&sb, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Load sweep") || !strings.Contains(sb.String(), "0.50") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

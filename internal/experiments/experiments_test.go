package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"microfaas/internal/model"
)

func TestFig1EndsAtPaperBootTimes(t *testing.T) {
	rows := Fig1()
	if len(rows) != 10 { // baseline + 9 optimizations
		t.Fatalf("%d stages, want 10", len(rows))
	}
	last := rows[len(rows)-1]
	if last.ARMReal != 1510*time.Millisecond || last.X86Real != 960*time.Millisecond {
		t.Fatalf("final boot = %v / %v, want 1.51s / 0.96s", last.ARMReal, last.X86Real)
	}
	var sb strings.Builder
	if err := WriteFig1(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "baseline") || !strings.Contains(sb.String(), "falcon") {
		t.Fatalf("Fig1 output missing stages:\n%s", sb.String())
	}
}

func TestFig3ReproducesSpeedCounts(t *testing.T) {
	rows, err := Fig3(Fig3Config{InvocationsPerFunction: 30, RunConfig: RunConfig{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 17 {
		t.Fatalf("%d functions, want 17", len(rows))
	}
	faster, atHalf, below := Fig3Counts(rows)
	if faster != 4 || atHalf != 9 || below != 4 {
		for _, r := range rows {
			t.Logf("%-12s ratio=%.3f", r.Function, r.SpeedRatio)
		}
		t.Fatalf("counts = %d/%d/%d, paper reports 4/9/4", faster, atHalf, below)
	}
	for _, r := range rows {
		if r.MFWorking <= 0 || r.MFOverhead <= 0 || r.ConvWorking <= 0 || r.ConvOverhead <= 0 {
			t.Fatalf("%s has empty split: %+v", r.Function, r)
		}
	}
	var sb strings.Builder
	if err := WriteFig3(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "CascSHA") {
		t.Fatal("Fig3 output missing functions")
	}
}

func TestFig4ShapeMatchesPaper(t *testing.T) {
	res, err := Fig4(Fig4Config{MaxVMs: 24, JobsPerVM: 150, RunConfig: RunConfig{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 24 {
		t.Fatalf("%d points", len(res.Points))
	}
	// Efficiency improves from 1 VM to the peak, which sits at/after
	// saturation (mid-teens VMs).
	if res.Points[0].JoulesPerFunc < res.PeakJoules {
		t.Fatal("1 VM should be least efficient")
	}
	if res.PeakVMs < 12 {
		t.Fatalf("peak at %d VMs, expected at/after saturation", res.PeakVMs)
	}
	if math.Abs(res.PeakJoules-model.PaperPeakConventionalJoulesPerFunc)/model.PaperPeakConventionalJoulesPerFunc > 0.08 {
		t.Fatalf("peak = %.1f J/func, want ≈%.1f", res.PeakJoules, model.PaperPeakConventionalJoulesPerFunc)
	}
	// MicroFaaS stays below the conventional cluster's best point.
	if res.MicroFaaSJoules >= res.PeakJoules {
		t.Fatalf("MicroFaaS %.1f J/func not below conventional peak %.1f",
			res.MicroFaaSJoules, res.PeakJoules)
	}
	// Throughput at 6 VMs should be near the paper's matched value.
	six := res.Points[5]
	if math.Abs(six.ThroughputPerMin-model.PaperVMThroughput)/model.PaperVMThroughput > 0.05 {
		t.Fatalf("6-VM throughput = %.1f, want ≈%.1f", six.ThroughputPerMin, model.PaperVMThroughput)
	}
	var sb strings.Builder
	if err := WriteFig4(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "peak efficiency") {
		t.Fatal("Fig4 output missing peak marker")
	}
}

func TestFig5EnergyProportionality(t *testing.T) {
	pts, err := Fig5(Fig5Config{MaxWorkers: 10, RunConfig: RunConfig{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 11 {
		t.Fatalf("%d points, want 11 (0..10)", len(pts))
	}
	// Idle offsets (worker qty = 0): the paper's key contrast. The rack
	// server idles at 60 W; the MicroFaaS cluster's ten powered-down SBCs
	// draw ≈1.3 W total.
	idle := pts[0]
	if math.Abs(idle.ConventionalWatts-60) > 1 {
		t.Fatalf("conventional idle = %.1f W, want 60", idle.ConventionalWatts)
	}
	if idle.MicroFaaSWatts > 2 {
		t.Fatalf("MicroFaaS idle = %.2f W, want ≈1.3", idle.MicroFaaSWatts)
	}
	// MicroFaaS scales nearly linearly: each active worker adds ≈1.83 W
	// (busy minus standby).
	for i := 1; i < len(pts); i++ {
		delta := pts[i].MicroFaaSWatts - pts[i-1].MicroFaaSWatts
		if delta < 1.5 || delta > 2.2 {
			t.Fatalf("MicroFaaS power step %d->%d = %.2f W, want ≈1.83", i-1, i, delta)
		}
	}
	// MicroFaaS uses far less power at every point.
	for _, p := range pts {
		if p.MicroFaaSWatts >= p.ConventionalWatts {
			t.Fatalf("at %d workers MicroFaaS %.1f W >= conventional %.1f W",
				p.ActiveWorkers, p.MicroFaaSWatts, p.ConventionalWatts)
		}
	}
	// Fully loaded, ten SBCs draw ≈19.6 W.
	full := pts[10]
	if math.Abs(full.MicroFaaSWatts-19.6) > 1 {
		t.Fatalf("10 busy SBCs = %.1f W, want ≈19.6", full.MicroFaaSWatts)
	}
	var sb strings.Builder
	if err := WriteFig5(&sb, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "workers") {
		t.Fatal("Fig5 output malformed")
	}
}

func TestHeadlineMatchesPaper(t *testing.T) {
	res, err := Headline(HeadlineConfig{InvocationsPerFunction: 40, RunConfig: RunConfig{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want)/want > tol {
			t.Errorf("%s = %.2f, want %.2f ± %.0f%%", what, got, want, tol*100)
		}
	}
	check("SBC throughput", res.SBCThroughputPerMin, model.PaperSBCThroughput, 0.03)
	check("VM throughput", res.VMThroughputPerMin, model.PaperVMThroughput, 0.03)
	check("MicroFaaS J/func", res.MicroFaaSJoules, model.PaperMicroFaaSJoulesPerFunc, 0.08)
	check("conventional J/func", res.ConventionalJoules, model.PaperConventionalJoulesPerFunc, 0.08)
	check("efficiency gain", res.EfficiencyGain, model.PaperEnergyEfficiencyGain, 0.10)
	var sb strings.Builder
	if err := WriteHeadline(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Efficiency gain") {
		t.Fatal("headline output malformed")
	}
}

func TestWriteTable2(t *testing.T) {
	var sb strings.Builder
	if err := WriteTable2(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Compute", "Network", "Energy", "Total", "82451", "78713"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table II output missing %q:\n%s", want, out)
		}
	}
}

func TestAblationCryptoAccel(t *testing.T) {
	res, err := AblationCryptoAccel(8, RunConfig{Seed: 5, Parallel: 1}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup() <= 1.05 {
		t.Fatalf("crypto accelerator speedup = %.2fx, expected a real gain", res.Speedup())
	}
	for _, d := range res.FunctionDeltas {
		if d.After >= d.Before {
			t.Fatalf("%s did not get faster: %v -> %v", d.Function, d.Before, d.After)
		}
	}
	if _, err := AblationCryptoAccel(0.5, RunConfig{Seed: 1, Parallel: 1}, 5); err == nil {
		t.Fatal("speedup below 1 accepted")
	}
}

func TestAblationGigE(t *testing.T) {
	res, err := AblationGigE(RunConfig{Seed: 6, Parallel: 1}, 20)
	if err != nil {
		t.Fatal(err)
	}
	// COSGet moves 8 MiB: the upgrade should cut its runtime hard.
	var cosget FunctionDelta
	for _, d := range res.FunctionDeltas {
		if d.Function == "COSGet" {
			cosget = d
		}
	}
	if cosget.Function == "" {
		t.Fatal("COSGet delta missing")
	}
	if float64(cosget.After) > float64(cosget.Before)*0.6 {
		t.Fatalf("GigE barely helped COSGet: %v -> %v", cosget.Before, cosget.After)
	}
	if res.Speedup() <= 1 {
		t.Fatalf("GigE upgrade slowed the cluster: %.2fx", res.Speedup())
	}
}

func TestAblationNoReboot(t *testing.T) {
	res, err := AblationNoReboot(RunConfig{Seed: 7, Parallel: 1}, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Dropping the 1.51 s boot from a ≈3 s cycle should buy roughly
	// 1.8-2.2x throughput — this is the measured price of the paper's
	// hardware-reset isolation guarantee.
	if res.Speedup() < 1.7 || res.Speedup() > 2.4 {
		t.Fatalf("no-reboot speedup = %.2fx, expected ≈2x", res.Speedup())
	}
	var sb strings.Builder
	if err := WriteAblation(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no reboot") {
		t.Fatal("ablation output malformed")
	}
}

package bootos

import (
	"testing"
	"time"
)

func TestFinalBootTimesMatchPaper(t *testing.T) {
	// Sec IV-A: "an OS that boots quickly (1.51 seconds on ARM; 0.96
	// seconds on x86)".
	if got := BootTime(ARM); got != 1510*time.Millisecond {
		t.Fatalf("ARM boot = %v, want 1.51s", got)
	}
	if got := BootTime(X86); got != 960*time.Millisecond {
		t.Fatalf("x86 boot = %v, want 0.96s", got)
	}
}

func TestCPUNeverExceedsReal(t *testing.T) {
	for _, p := range []Platform{ARM, X86} {
		for _, st := range Timeline(p) {
			for _, c := range st.Profile.Components {
				if c.CPU > c.Real {
					t.Fatalf("%v %q component %q: CPU %v > Real %v",
						p, st.Label, c.Name, c.CPU, c.Real)
				}
			}
		}
	}
}

func TestTimelineMonotonicallyImproves(t *testing.T) {
	for _, p := range []Platform{ARM, X86} {
		stages := Timeline(p)
		for i := 1; i < len(stages); i++ {
			if stages[i].Profile.RealTime() > stages[i-1].Profile.RealTime() {
				t.Fatalf("%v stage %q regressed Real time", p, stages[i].Label)
			}
			if stages[i].Profile.CPUTime() > stages[i-1].Profile.CPUTime() {
				t.Fatalf("%v stage %q regressed CPU time", p, stages[i].Label)
			}
		}
	}
}

func TestTimelineEndsAtFinalProfile(t *testing.T) {
	for _, p := range []Platform{ARM, X86} {
		stages := Timeline(p)
		last := stages[len(stages)-1].Profile
		if last.RealTime() != FinalProfile(p).RealTime() {
			t.Fatalf("%v timeline end Real %v != final %v",
				p, last.RealTime(), FinalProfile(p).RealTime())
		}
		if last.CPUTime() != FinalProfile(p).CPUTime() {
			t.Fatalf("%v timeline end CPU mismatch", p)
		}
	}
}

func TestBaselineIsFinalPlusAllReductions(t *testing.T) {
	for _, p := range []Platform{ARM, X86} {
		var totalRed time.Duration
		for _, o := range Optimizations() {
			if red, ok := o.Reduction[p]; ok {
				totalRed += red[0]
			}
		}
		base, fin := BaselineProfile(p), FinalProfile(p)
		if base.RealTime() != fin.RealTime()+totalRed {
			t.Fatalf("%v baseline Real %v != final %v + reductions %v",
				p, base.RealTime(), fin.RealTime(), totalRed)
		}
	}
}

func TestBaselineIsUnoptimizedDistroScale(t *testing.T) {
	// A stock distro on a BeagleBone boots in tens of seconds; the model's
	// baseline should be in that regime, and x86 should be faster.
	arm, x86 := BaselineProfile(ARM).RealTime(), BaselineProfile(X86).RealTime()
	if arm < 15*time.Second || arm > 60*time.Second {
		t.Fatalf("ARM baseline %v outside plausible stock-distro range", arm)
	}
	if x86 >= arm {
		t.Fatalf("x86 baseline %v should beat ARM baseline %v", x86, arm)
	}
}

func TestAutonegSavesRealNotCPU(t *testing.T) {
	// Optimization F's whole point: auto-negotiation is wall-clock delay,
	// not computation (Fig 1 shows the Real bar dropping with CPU flat).
	for _, o := range Optimizations() {
		if o.ID != "F" {
			continue
		}
		for p, red := range o.Reduction {
			if red[0] < 2*time.Second {
				t.Fatalf("autoneg skip on %v saves only %v Real, want seconds", p, red[0])
			}
			if red[1] > 100*time.Millisecond {
				t.Fatalf("autoneg skip on %v saves %v CPU, want ≈0", p, red[1])
			}
		}
		return
	}
	t.Fatal("optimization F missing")
}

func TestARMOnlyOptimizations(t *testing.T) {
	// E (falcon-mode U-Boot) and G (vendor PHY patch) apply only to the SBC.
	for _, o := range Optimizations() {
		switch o.ID {
		case "E", "G":
			if _, ok := o.Reduction[X86]; ok {
				t.Fatalf("optimization %s must not affect x86", o.ID)
			}
			if _, ok := o.Reduction[ARM]; !ok {
				t.Fatalf("optimization %s must affect ARM", o.ID)
			}
		}
	}
}

func TestAllNineOptimizationsPresent(t *testing.T) {
	want := map[string]bool{"A": true, "B": true, "C": true, "D": true,
		"E": true, "F": true, "G": true, "H": true, "I": true}
	for _, o := range Optimizations() {
		if !want[o.ID] {
			t.Fatalf("unexpected or duplicate optimization %q", o.ID)
		}
		delete(want, o.ID)
	}
	if len(want) != 0 {
		t.Fatalf("missing optimizations: %v", want)
	}
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	base := BaselineProfile(ARM)
	before := base.RealTime()
	Optimizations()[0].Apply(base)
	if base.RealTime() != before {
		t.Fatal("Apply mutated its input profile")
	}
}

func TestApplyUnknownComponentPanics(t *testing.T) {
	o := Optimization{ID: "Z", Component: "nonexistent",
		Reduction: map[Platform][2]time.Duration{ARM: {time.Second, 0}}}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on unknown component")
		}
	}()
	o.Apply(FinalProfile(ARM))
}

func TestApplyNegativePanics(t *testing.T) {
	o := Optimization{ID: "Z", Component: "kernel",
		Reduction: map[Platform][2]time.Duration{ARM: {time.Hour, 0}}}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on negative component time")
		}
	}()
	o.Apply(FinalProfile(ARM))
}

func TestComponentLookup(t *testing.T) {
	names := map[string]bool{}
	for _, c := range FinalProfile(ARM).Components {
		names[c.Name] = true
	}
	if !names["kernel"] {
		t.Fatal("kernel component missing")
	}
	if names["flux-capacitor"] {
		t.Fatal("unexpected component")
	}
}

func TestBootCPUFraction(t *testing.T) {
	for _, p := range []Platform{ARM, X86} {
		f := BootCPUFraction(p)
		if f <= 0 || f > 1 {
			t.Fatalf("%v boot CPU fraction %v outside (0,1]", p, f)
		}
	}
	// Boot is compute-heavy on both platforms (decompression, init);
	// the contention model relies on this being well above half.
	if f := BootCPUFraction(X86); f < 0.6 {
		t.Fatalf("x86 boot CPU fraction %v unexpectedly low", f)
	}
}

func TestSBCRebootsUnderTwoSeconds(t *testing.T) {
	// Sec III-a: "SBCs... can be rebooted in less than 2 seconds".
	if BootTime(ARM) >= 2*time.Second {
		t.Fatal("SBC boot must be under 2 seconds")
	}
}

func TestPlatformString(t *testing.T) {
	if ARM.String() != "arm" || X86.String() != "x86" {
		t.Fatal("platform names wrong")
	}
}

// TestBootTotalsComputedOnce: BootTime and BootCPUFraction read totals
// computed once per platform, so the per-board and per-cold-boot reads
// allocate nothing, and they agree with a fresh FinalProfile, which stays
// the caller's own copy.
func TestBootTotalsComputedOnce(t *testing.T) {
	for _, p := range []Platform{ARM, X86} {
		allocs := testing.AllocsPerRun(100, func() {
			_ = BootTime(p)
			_ = BootCPUFraction(p)
		})
		if allocs != 0 {
			t.Fatalf("%v: BootTime + BootCPUFraction allocate %v times, want 0", p, allocs)
		}
		prof := FinalProfile(p)
		if BootTime(p) != prof.RealTime() {
			t.Fatalf("%v: BootTime %v, final profile %v", p, BootTime(p), prof.RealTime())
		}
		if want := float64(prof.CPUTime()) / float64(prof.RealTime()); BootCPUFraction(p) != want {
			t.Fatalf("%v: BootCPUFraction %v, final profile %v", p, BootCPUFraction(p), want)
		}
		prof.Components[0].Real += time.Hour
		if again := FinalProfile(p); again.RealTime() != BootTime(p) {
			t.Fatalf("%v: editing one FinalProfile changed the next (%v, want %v)", p, again.RealTime(), BootTime(p))
		}
	}
}

package experiments

import (
	"strings"
	"testing"
	"time"
)

// shortDay keeps the test fast: a 4-hour "day" with modest rates.
func shortDay(t *testing.T, seed int64) DiurnalResult {
	t.Helper()
	res, err := Diurnal(DiurnalConfig{
		TroughPerMin: 5,
		PeakPerMin:   120,
		Day:          4 * time.Hour,
		RunConfig:    RunConfig{Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDiurnalBothClustersCompleteTheDay(t *testing.T) {
	res := shortDay(t, 1)
	if res.Invocations == 0 {
		t.Fatal("empty trace")
	}
	if res.MF.Completed != res.Invocations || res.Conv.Completed != res.Invocations {
		t.Fatalf("completed %d / %d of %d invocations",
			res.MF.Completed, res.Conv.Completed, res.Invocations)
	}
}

func TestDiurnalEnergyAdvantageExceedsSaturated(t *testing.T) {
	// Under a realistic demand curve — long off-peak stretches — the
	// energy ratio must beat the saturated 5.6x headline: the conventional
	// rack idles at 60 W all night.
	res := shortDay(t, 1)
	ratio := res.Conv.KWh / res.MF.KWh
	if ratio < 5.6 {
		t.Fatalf("diurnal energy ratio = %.1fx, expected to exceed the saturated 5.6x", ratio)
	}
	if res.MF.JoulesPer >= res.Conv.JoulesPer {
		t.Fatal("MicroFaaS lost the per-function comparison")
	}
}

func TestDiurnalMeanPowerBounds(t *testing.T) {
	res := shortDay(t, 2)
	// The conventional cluster can never average below its idle floor...
	if res.Conv.MeanPowerW < 60 {
		t.Fatalf("conventional mean power %.1f W below the 60 W idle floor", res.Conv.MeanPowerW)
	}
	// ...while ten SBCs can never average above their all-busy ceiling.
	if res.MF.MeanPowerW > 19.6 {
		t.Fatalf("MicroFaaS mean power %.1f W above the 19.6 W ceiling", res.MF.MeanPowerW)
	}
	if res.MF.MeanPowerW <= 0 {
		t.Fatal("no MicroFaaS power recorded")
	}
}

func TestDiurnalDeterministicPerSeed(t *testing.T) {
	a, b := shortDay(t, 3), shortDay(t, 3)
	if a.Invocations != b.Invocations || a.MF.Completed != b.MF.Completed {
		t.Fatalf("same seed, different day: %+v vs %+v", a, b)
	}
}

func TestWriteDiurnal(t *testing.T) {
	res := shortDay(t, 1)
	var sb strings.Builder
	if err := WriteDiurnal(&sb, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Diurnal day", "microfaas", "conventional", "kWh/day"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// shortPM keeps the test runs cheap: a 20-minute virtual day is long
// enough for idle power-downs and wakes to happen many times over.
func shortPM(seed int64, parallel int) PowerMgmtConfig {
	return PowerMgmtConfig{Day: 20 * time.Minute, RunConfig: RunConfig{Seed: seed, Parallel: parallel}}
}

func TestPowerMgmtSavings(t *testing.T) {
	r, err := PowerMgmt(shortPM(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Levels) != 3 {
		t.Fatalf("expected 3 levels, got %d", len(r.Levels))
	}
	for _, lv := range r.Levels {
		// Every arm must finish the whole trace: the manager may never
		// lose jobs.
		for _, arm := range []PowerMgmtArm{lv.PerJob, lv.AlwaysOn, lv.Managed} {
			if arm.Completed != lv.Invocations {
				t.Errorf("util %.0f%% %s: completed %d of %d invocations",
					100*lv.Utilization, arm.Name, arm.Completed, lv.Invocations)
			}
		}
		// The headline claim: at low-to-moderate utilization the manager
		// reclaims at least 20% of the always-on energy bill.
		if lv.Utilization <= 0.3 && lv.SavingsVsAlwaysOn < 0.20 {
			t.Errorf("util %.0f%%: managed saves only %.1f%% vs always-on (want >= 20%%)",
				100*lv.Utilization, 100*lv.SavingsVsAlwaysOn)
		}
		// Wake-on-demand must press PWR_BUT far less often than the
		// per-job power cycle, and at least once (the cluster starts off).
		if lv.Managed.PowerOns == 0 || lv.Managed.PowerOns >= lv.PerJob.PowerOns {
			t.Errorf("util %.0f%%: managed power-ons %d, per-job %d",
				100*lv.Utilization, lv.Managed.PowerOns, lv.PerJob.PowerOns)
		}
	}
}

func TestPowerMgmtDeterministicAcrossParallelism(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		runTwiceAndCompare(t, "powermgmt", func(p int) (PowerMgmtResult, error) {
			return PowerMgmt(shortPM(seed, p))
		})
	}
}

// TestPowerMgmtPredictiveDeterministicAcrossParallelism pins the
// four-arm predict-on run: the forecast controller's ticks, the tsdb
// scrapes, and the pre-sleep machinery all ride the virtual clock, so
// output is identical at any worker-pool size.
func TestPowerMgmtPredictiveDeterministicAcrossParallelism(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		runTwiceAndCompare(t, "powermgmt-predict", func(p int) (PowerMgmtResult, error) {
			cfg := shortPM(seed, p)
			cfg.Predict = true
			return PowerMgmt(cfg)
		})
	}
}

// TestPowerMgmtPredictiveArm checks the fourth arm runs the whole trace
// and reports forecast accounting alongside its energy numbers.
func TestPowerMgmtPredictiveArm(t *testing.T) {
	cfg := shortPM(1, 0)
	cfg.Predict = true
	r, err := PowerMgmt(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, lv := range r.Levels {
		p := lv.Predictive
		if p.Name != "predictive" {
			t.Fatalf("util %.0f%%: predictive arm missing (%+v)", 100*lv.Utilization, p)
		}
		if p.Completed != lv.Invocations {
			t.Errorf("util %.0f%%: predictive completed %d of %d", 100*lv.Utilization, p.Completed, lv.Invocations)
		}
		if lv.SavingsPredictive <= 0 {
			t.Errorf("util %.0f%%: predictive savings %.3f, want > 0 vs always-on", 100*lv.Utilization, lv.SavingsPredictive)
		}
		if p.ForecastError < 0 || p.ForecastError > 2 {
			t.Errorf("util %.0f%%: forecast error %.3f outside sMAPE range [0,2]", 100*lv.Utilization, p.ForecastError)
		}
	}
}

func TestWritePowerMgmt(t *testing.T) {
	r, err := PowerMgmt(shortPM(detSeed, 0))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WritePowerMgmt(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Power management", "per-job", "always-on", "managed", "J/function", "savings"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

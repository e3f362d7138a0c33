package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestKeepWarmTradesEnergyForLatency(t *testing.T) {
	pts, err := KeepWarm(KeepWarmConfig{
		Windows:   []time.Duration{0, 30 * time.Second},
		Duration:  10 * time.Minute,
		RunConfig: RunConfig{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	paper, warm := pts[0], pts[1]

	// The paper's policy never warm-starts; a 30 s window at 50% load
	// should warm-start nearly everything.
	if paper.WarmFraction != 0 {
		t.Fatalf("paper policy warm fraction = %.2f, want 0", paper.WarmFraction)
	}
	if warm.WarmFraction < 0.8 {
		t.Fatalf("30s window warm fraction = %.2f, want >0.8", warm.WarmFraction)
	}
	// Warm starts must cut latency by roughly the boot time...
	saved := paper.MeanLatency - warm.MeanLatency
	if saved < time.Second {
		t.Fatalf("keep-warm saved only %v of latency", saved)
	}
	// ...and must cost energy (idle draw while parked).
	if warm.JoulesPerFunc <= paper.JoulesPerFunc {
		t.Fatalf("keep-warm energy %.2f <= paper %.2f J/func — the trade vanished",
			warm.JoulesPerFunc, paper.JoulesPerFunc)
	}
}

func TestKeepWarmLongerWindowsCostMore(t *testing.T) {
	pts, err := KeepWarm(KeepWarmConfig{
		Windows:   []time.Duration{5 * time.Second, 2 * time.Minute},
		Duration:  10 * time.Minute,
		RunConfig: RunConfig{Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].JoulesPerFunc <= pts[0].JoulesPerFunc {
		t.Fatalf("2m window %.2f J/func <= 5s window %.2f — longer parking must cost more",
			pts[1].JoulesPerFunc, pts[0].JoulesPerFunc)
	}
	if pts[1].WarmFraction < pts[0].WarmFraction {
		t.Fatal("longer window must not lower the warm-hit rate")
	}
}

func TestKeepWarmValidation(t *testing.T) {
	if _, err := KeepWarm(KeepWarmConfig{LoadFraction: 1.5}); err == nil {
		t.Fatal("overload accepted")
	}
	if _, err := KeepWarm(KeepWarmConfig{LoadFraction: -0.5}); err == nil {
		t.Fatal("negative load accepted")
	}
}

func TestWriteKeepWarm(t *testing.T) {
	pts, err := KeepWarm(KeepWarmConfig{
		Windows:   []time.Duration{0},
		Duration:  5 * time.Minute,
		RunConfig: RunConfig{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteKeepWarm(&sb, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "off(paper)") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

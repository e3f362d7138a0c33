package experiments

import (
	"strings"
	"testing"

	"microfaas/internal/model"
)

func TestBootImpactMonotoneAndEndsAtPaper(t *testing.T) {
	rows, err := BootImpact(BootImpactConfig{InvocationsPerFunction: 10, RunConfig: RunConfig{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // baseline + 9 optimizations
		t.Fatalf("%d stages", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].ThroughputPerMin < rows[i-1].ThroughputPerMin {
			t.Fatalf("stage %q lowered throughput (%.1f -> %.1f)",
				rows[i].Stage, rows[i-1].ThroughputPerMin, rows[i].ThroughputPerMin)
		}
		if rows[i].JoulesPerFunc > rows[i-1].JoulesPerFunc {
			t.Fatalf("stage %q raised energy", rows[i].Stage)
		}
	}
	final := rows[len(rows)-1]
	if final.ThroughputPerMin < model.PaperSBCThroughput*0.97 ||
		final.ThroughputPerMin > model.PaperSBCThroughput*1.03 {
		t.Fatalf("final stage throughput = %.1f, want ≈%.1f", final.ThroughputPerMin, model.PaperSBCThroughput)
	}
	// The architectural point: with the unoptimized boot, MicroFaaS would
	// cost MORE energy per function than the conventional cluster.
	if rows[0].JoulesPerFunc <= model.PaperConventionalJoulesPerFunc {
		t.Fatalf("baseline-boot energy %.1f J/func unexpectedly beats conventional %.1f — the OS work should be load-bearing",
			rows[0].JoulesPerFunc, model.PaperConventionalJoulesPerFunc)
	}
}

func TestWriteBootImpact(t *testing.T) {
	rows, err := BootImpact(BootImpactConfig{InvocationsPerFunction: 5, RunConfig: RunConfig{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteBootImpact(&sb, rows); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"baseline", "falcon", "bought"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, sb.String())
		}
	}
}

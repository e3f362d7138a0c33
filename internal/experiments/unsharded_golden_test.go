package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"microfaas/internal/cluster"
	"microfaas/internal/model"
)

var updateUnshardedGolden = flag.Bool("update-unsharded-golden", false, "regenerate testdata/unsharded_golden.txt")

// TestUnshardedGoldenPR12 pins the unsharded assemblers
// (NewMicroFaaSSim, NewConventionalSim, NewConventionalRackSim) to the
// exact bytes the tree rendered at PR 12, before they were collapsed onto
// one per-shard builder: the full `microfaas-sim all` report for seeds
// 1–2, plus the fig3 MicroFaaS trace CSV, whose rows carry worker ids.
// The serial-vs-parallel determinism suite compares one tree against
// itself and cannot see a drift both sides share (a renamed worker, a
// shifted seed, an extra RNG draw); this can. Regenerate only with a
// deliberate, explained change: go test -run UnshardedGolden -update-unsharded-golden.
func TestUnshardedGoldenPR12(t *testing.T) {
	const n = 10
	var buf bytes.Buffer
	for seed := int64(1); seed <= 2; seed++ {
		fmt.Fprintf(&buf, "== all seed %d ==\n", seed)
		if err := WriteAll(&buf, Params{N: n, RunConfig: RunConfig{Seed: seed}}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	fmt.Fprintln(&buf, "== fig3 MicroFaaS trace CSV seed 1 ==")
	s, err := cluster.NewMicroFaaSSim(model.SBCCount, cluster.SimConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := s.RunSuite(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := coll.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "unsharded_golden.txt")
	if *updateUnshardedGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", buf.Len(), path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-unsharded-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("unsharded output drifted from the PR 12 golden (%d bytes, want %d); diff a -update-unsharded-golden render against %s", buf.Len(), len(want), path)
	}
}

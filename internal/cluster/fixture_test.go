package cluster

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microfaas/internal/workload"
)

// TestLiveFixtureMatchesSuiteGolden checks that each store StartLive seeds
// serves its part of the fixture: it walks TestSuiteOutputsGolden's loop —
// seed 22, all 17 functions in All()'s order, three argument sets each —
// but runs only the functions that read the fixture (SQLSelect, COSGet,
// MQConsume; each comes before any function that writes its store) against
// a started live cluster, and holds each of their outputs to its line of
// internal/workload/testdata/suite_outputs_golden.txt.
func TestLiveFixtureMatchesSuiteGolden(t *testing.T) {
	l, err := StartLive(LiveOptions{Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	raw, err := os.ReadFile(filepath.Join("..", "workload", "testdata", "suite_outputs_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	readers := map[string]bool{"SQLSelect": true, "COSGet": true, "MQConsume": true}
	rng := rand.New(rand.NewSource(22))
	line, ran := 0, 0
	for _, f := range workload.All() {
		for i := 0; i < 3; i++ {
			args := f.GenArgs(rng)
			if line++; !readers[f.Name] {
				continue
			}
			out, err := f.Run(l.Env, args)
			if err != nil {
				t.Fatalf("%s invocation %d: %v", f.Name, i, err)
			}
			ran++
			if got := fmt.Sprintf("%s %x", f.Name, sha256.Sum256(out)); line > len(golden) || got != golden[line-1] {
				t.Errorf("golden line %d: got %s", line, got)
			}
		}
	}
	if line != len(golden) || ran != 3*len(readers) {
		t.Fatalf("walked %d lines and ran %d readers; golden has %d lines, want %d runs", line, ran, len(golden), 3*len(readers))
	}
}

// BenchmarkStartLive times a live cluster's set-up and teardown: the four
// stores, their fixture, one worker and the orchestrator. The fixture is
// written off StartLive's path, but Close waits for it, so each op still
// pays for the whole of it.
func BenchmarkStartLive(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, err := StartLive(LiveOptions{Workers: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		l.Close()
	}
}

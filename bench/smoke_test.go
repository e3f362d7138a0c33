package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchDefinition is the part of BENCHMARK.json the smoke test holds the
// program to.
type benchDefinition struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload, the traced pass and the ladder at a tiny
// size and checks that exactly the metrics BENCHMARK.json names come out,
// each with its unit and a finite value, and that nothing failed.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchDefinition
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	c := config{
		seed:   1,
		trials: 1,
		warm:   20 * time.Millisecond,
		window: 150 * time.Millisecond,
		sims: []simKind{
			{name: "sim_sharded", shards: 4, workersPerShard: 16},
			{name: "sim_observed", shards: 2, workersPerShard: 16, observed: true},
		},
		ladder: ladderSizes{reps: 1, scale: 0.01},
		out:    t.TempDir(),
	}
	names := c.workloadNames()
	if len(names) != len(def.Workloads) {
		t.Fatalf("program has workloads %v, BENCHMARK.json has %d", names, len(def.Workloads))
	}
	for i, w := range def.Workloads {
		if names[i] != w.Name {
			t.Errorf("workload %d: program %q, BENCHMARK.json %q", i, names[i], w.Name)
		}
	}
	check := func(kind string, res workloadResult, want []struct{ Name, Unit string }, nonZero bool) {
		t.Helper()
		if res.FailedShare != 0 || res.Failed != 0 || !res.Correct || res.Attempted < 1 {
			t.Errorf("%s %s: attempted %d, failed %d, correct %v, notes %v", res.Workload, kind, res.Attempted, res.Failed, res.Correct, res.Notes)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s %s: %d metrics emitted, BENCHMARK.json names %d", res.Workload, kind, len(res.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s %s: %s not emitted", res.Workload, kind, m.Name)
			case v.Unit != m.Unit:
				t.Errorf("%s %s: %s has unit %q, BENCHMARK.json says %q", res.Workload, kind, m.Name, v.Unit, m.Unit)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s %s: %s = %v", res.Workload, kind, m.Name, v.Value)
			case nonZero && v.Value == 0:
				t.Errorf("%s %s: %s is 0; an end-to-end metric must never be", res.Workload, kind, m.Name)
			}
		}
	}
	ladder, err := runLadder(c.ladder, genSuite(c.seed, 17))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		res, err := c.endToEnd(name)
		if err != nil {
			t.Fatal(err)
		}
		check("end-to-end", res, def.EndToEnd, true)
		res, err = c.perLayer(name, ladder)
		if err != nil {
			t.Fatal(err)
		}
		check("per-layer", res, def.PerLayer, false)
	}
	// The traced trial of a live workload leaves a Chrome trace behind.
	data, err = os.ReadFile(filepath.Join(c.out, "trace_live_suite.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct{ Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range trace.TraceEvents {
		seen[e.Name] = true
	}
	for _, want := range []string{"client.roundtrip", "core.submit_to_settle", "node.cycle"} {
		if !seen[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}

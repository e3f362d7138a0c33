package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareClassifiesEachMetric(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("spec.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "throughput_rps", "unit": "req/s", "better": "higher", "bound": 0.10},
		{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
	}})
	result := func(thr, p50, setup []float64, joules float64) resultFile {
		return resultFile{
			Env: environment{Seed: 1},
			EndToEnd: map[string]workloadResult{"sim_sharded": {Metrics: map[string]metricValue{
				"throughput_rps": newMetric("req/s", thr),
				"latency_p50_ms": newMetric("ms", p50),
				"setup_s":        newMetric("s", setup),
			}}},
			PerLayer: map[string]workloadResult{"sim_sharded": {Metrics: map[string]metricValue{
				"joules_per_func": one("J", joules),
			}}},
		}
	}
	base := write("a.json", result([]float64{100, 101, 102}, []float64{1, 1.01, 1.02}, []float64{0.010, 0.011, 0.012}, 6.2797))
	same := write("b.json", result([]float64{99, 101, 103}, []float64{1.01, 1.02, 1.03}, []float64{0.030, 0.031, 0.032}, 6.2797))
	slow := write("c.json", result([]float64{80, 81, 82}, []float64{0.5, 0.51, 0.52}, []float64{0.010, 0.011, 0.012}, 6.3))

	var out strings.Builder
	if err := runCompare(&out, spec, []string{base, same}); err != nil {
		t.Errorf("same commit compared worse: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "worse") {
		t.Errorf("unexpected 'worse':\n%s", out.String())
	}

	out.Reset()
	err := runCompare(&out, spec, []string{base, slow})
	if err == nil {
		t.Error("a 20% throughput loss and a changed exact output must fail the comparison")
	}
	for _, want := range []string{
		"throughput_rps", "worse", // lost 20%
		"better",          // p50 halved
		"joules_per_func", // exact output moved
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if got := strings.Count(out.String(), "worse"); got != 2 {
		t.Errorf("want 2 rows worse (throughput, joules), got %d:\n%s", got, out.String())
	}
}

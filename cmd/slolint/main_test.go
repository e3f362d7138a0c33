package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRules drops a rule file into the test's temp dir.
func writeRules(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const validRules = `[
  {"name": "latency", "kind": "latency", "threshold_s": 2, "target": 0.99,
   "windows": {"fast_short": "4s", "fast_long": "10s", "fast_burn": 2,
               "slow_short": "8s", "slow_long": "20s", "slow_burn": 1.2}},
  {"name": "errors", "kind": "error_ratio", "target": 0.99}
]`

func TestLintAcceptsValidFiles(t *testing.T) {
	path := writeRules(t, "rules.json", validRules)
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Fatalf("stdout = %q", out.String())
	}
}

// TestLintShippedExamples pins the repo's example rule files: the files
// the docs tell users to run must always lint.
func TestLintShippedExamples(t *testing.T) {
	var out, errOut strings.Builder
	files := []string{"../../examples/slo/rules.json", "../../examples/slo/diurnal.json"}
	if code := run(files, &out, &errOut); code != 0 {
		t.Fatalf("shipped examples failed lint (exit %d): %s", code, errOut.String())
	}
}

func TestLintRejections(t *testing.T) {
	cases := []struct {
		name, content, want string
	}{
		{"badjson.json", `[{"name": `, "bad rule file"},
		{"empty.json", `[]`, "empty"},
		{"badkind.json", `[{"name": "x", "kind": "latencyy", "threshold_s": 1, "target": 0.5}]`, "unknown kind"},
		{"badwindow.json", `[{"name": "x", "kind": "error_ratio", "target": 0.5,
			"windows": {"fast_short": "10s", "fast_long": "4s", "fast_burn": 2,
			            "slow_short": "8s", "slow_long": "20s", "slow_burn": 1}}]`, "shorter than"},
		{"badmetric.json", `[{"name": "x", "kind": "error_ratio", "target": 0.5, "metric": "microfaas_no_such_total"}]`, "unknown metric"},
		{"scopedlatency.json", `[{"name": "x", "kind": "latency", "threshold_s": 1, "target": 0.9, "function": "MatMul"}]`, "no function label"},
		{"scopedclusterenergy.json", `[{"name": "x", "kind": "energy_budget", "budget_j": 5, "function": "MatMul",
			"metric": "microfaas_cluster_energy_joules_total"}]`, "no function label"},
		{"dupname.json", `[{"name": "x", "kind": "error_ratio", "target": 0.5},
			{"name": "x", "kind": "error_ratio", "target": 0.9}]`, "duplicate rule name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeRules(t, tc.name, tc.content)
			var out, errOut strings.Builder
			if code := run([]string{path}, &out, &errOut); code != 1 {
				t.Fatalf("exit %d, want 1 (stderr %q)", code, errOut.String())
			}
			if !strings.Contains(errOut.String(), tc.want) {
				t.Fatalf("stderr %q missing %q", errOut.String(), tc.want)
			}
		})
	}
}

func TestLintNoArgsIsUsageError(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "usage") {
		t.Fatalf("stderr = %q", errOut.String())
	}
}

// TestLintMissingFile keeps the error path readable: the message names
// the file and the underlying problem.
func TestLintMissingFile(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"/no/such/file.json"}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "/no/such/file.json") {
		t.Fatalf("stderr = %q", errOut.String())
	}
}

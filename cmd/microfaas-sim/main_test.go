package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microfaas/internal/experiments"
	"microfaas/internal/telemetry"
)

// flagTakers is the hand-written expectation the suite table is checked
// against: for each flag (with the value the test sets it to), the
// experiments that read it. -seed and -parallel are read by all.
var flagTakers = []struct {
	flag, value string
	takers      string
}{
	{"seed", "3", "*"},
	{"parallel", "1", "*"},
	{"format", "text", "*"},
	{"format", "csv", "fig3 fig4 fig5 loadsweep keepwarm"},
	{"n", "7", "fig3 headline ablations report all"},
	{"shards", "8", "shardedrack shardfailover"},
	{"slo", "../../examples/slo/rules.json", "shardfailover powermgmt"},
	{"predict", "true", "powermgmt"},
	{"csv", "x.csv", "fig3"},
	{"prom", "x.prom", "fig3"},
	{"trace", "x.json", "fig3"},
}

// TestEveryFlagExperimentPair sets each flag explicitly on each
// experiment's command line: where the experiment reads the flag the line
// parses to a renderer, everywhere else it exits 2 and the message names
// the experiments that would have taken it.
func TestEveryFlagExperimentPair(t *testing.T) {
	for _, ft := range flagTakers {
		for _, exp := range experiments.Suite {
			takes := ft.takers == "*" || strings.Contains(" "+ft.takers+" ", " "+exp.Name+" ")
			var stderr bytes.Buffer
			render, status := parse([]string{"-" + ft.flag + "=" + ft.value, exp.Name}, &stderr)
			switch {
			case takes && (render == nil || status != 0):
				t.Errorf("-%s %s %s: refused (status %d): %s", ft.flag, ft.value, exp.Name, status, stderr.String())
			case !takes && (render != nil || status != 2):
				t.Errorf("-%s %s %s: accepted (status %d), want exit 2", ft.flag, ft.value, exp.Name, status)
			case !takes:
				want := "does not apply to " + exp.Name + "; it applies to: " + strings.ReplaceAll(ft.takers, " ", ", ") + "\n"
				if !strings.HasSuffix(stderr.String(), want) {
					t.Errorf("-%s %s %s: message %q, want suffix %q", ft.flag, ft.value, exp.Name, stderr.String(), want)
				}
			}
		}
	}
}

// TestDefaultsAreNotFlagged: only flags set on the command line count, so
// a bare experiment name is always accepted, and a cheap one renders what
// the library renders.
func TestDefaultsAreNotFlagged(t *testing.T) {
	for _, exp := range experiments.Suite {
		var stderr bytes.Buffer
		if render, status := parse([]string{exp.Name}, &stderr); render == nil || status != 0 {
			t.Errorf("%s: status %d: %s", exp.Name, status, stderr.String())
		}
	}
	render, _ := parse([]string{"-seed", "2", "table2"}, new(bytes.Buffer))
	var got, want bytes.Buffer
	if err := render(&got); err != nil {
		t.Fatal(err)
	}
	if err := experiments.WriteTable2(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("table2 via the CLI:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

// TestUsageComesFromTheSuite: -h exits 0 and lists every row; a wrong
// command line exits 2.
func TestUsageComesFromTheSuite(t *testing.T) {
	var stderr bytes.Buffer
	if render, status := parse([]string{"-h"}, &stderr); render != nil || status != 0 {
		t.Fatalf("-h: status %d", status)
	}
	for _, exp := range experiments.Suite {
		if !strings.Contains(stderr.String(), " "+exp.Name+" ") || !strings.Contains(stderr.String(), exp.Summary) {
			t.Errorf("usage text does not list %s", exp.Name)
		}
	}
	for _, args := range [][]string{{}, {"fig1", "fig3"}, {"nosuch"}, {"-format", "json", "fig3"}, {"-nosuchflag", "fig1"}, {"-slo", "missing.json", "powermgmt"}} {
		if render, status := parse(args, new(bytes.Buffer)); render != nil || status != 2 {
			t.Errorf("%q: status %d, want 2 and nothing to run", args, status)
		}
	}
}

// runCLI parses the command line, runs the experiment it names and returns
// what it printed.
func runCLI(t *testing.T, args ...string) *strings.Builder {
	t.Helper()
	var stderr bytes.Buffer
	render, status := parse(args, &stderr)
	if render == nil {
		t.Fatalf("%q: status %d: %s", args, status, stderr.String())
	}
	var sb strings.Builder
	if err := render(&sb); err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return &sb
}

func TestRunEachExperiment(t *testing.T) {
	cases := map[string][]string{
		"fig1":      {"baseline", "falcon"},
		"fig3":      {"CascSHA", "paper: 4 / 9 / 4"},
		"fig5":      {"workers", "60.00"},
		"headline":  {"Efficiency gain", "200.6"},
		"table2":    {"82451", "savings: 34.2%"},
		"rackscale": {"throughput ratio"},
		"ablations": {"crypto-accelerator", "gigabit NIC", "no reboot"},
	}
	for exp, wants := range cases {
		exp, wants := exp, wants
		t.Run(exp, func(t *testing.T) {
			args := []string{exp}
			if experiments.Lookup(exp).CheckFlag("n", "20") == nil {
				args = []string{"-n", "20", exp}
			}
			sb := runCLI(t, args...)
			for _, w := range wants {
				if !strings.Contains(sb.String(), w) {
					t.Fatalf("%s output missing %q:\n%s", exp, w, sb.String())
				}
			}
		})
	}
}

// TestRunShardedRack drives the sharded experiment through the CLI
// dispatch at a reduced shard count (the -shards flag) so the test
// stays fast while covering the real code path.
func TestRunShardedRack(t *testing.T) {
	sb := runCLI(t, "-shards", "2", "shardedrack")
	for _, w := range []string{"Sharded control plane (2 shards", "uniform/full", "hotkey/steal", "sustained"} {
		if !strings.Contains(sb.String(), w) {
			t.Fatalf("shardedrack output missing %q:\n%s", w, sb.String())
		}
	}
}

func TestRunWritesCSVTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	runCLI(t, "-n", "5", "-csv", path, "fig3")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 50 {
		t.Fatalf("CSV has only %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "job_id,function,worker,attempt") {
		t.Fatalf("CSV header = %q", lines[0])
	}
}

func TestRunCSVFormats(t *testing.T) {
	cases := map[string]string{
		"fig3":      "function,mf_working_ms",
		"fig4":      "vms,throughput_per_min",
		"fig5":      "active_workers,microfaas_watts",
		"loadsweep": "load_fraction,offered_per_min",
		"keepwarm":  "window_s,mean_latency_ms",
	}
	for exp, header := range cases {
		exp, header := exp, header
		t.Run(exp, func(t *testing.T) {
			sb := runCLI(t, "-format", "csv", exp)
			lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
			if !strings.HasPrefix(lines[0], header) {
				t.Fatalf("%s CSV header = %q, want prefix %q", exp, lines[0], header)
			}
			if len(lines) < 2 {
				t.Fatalf("%s CSV has no data rows", exp)
			}
			wantFields := strings.Count(lines[0], ",") + 1
			for i, line := range lines[1:] {
				if got := strings.Count(line, ",") + 1; got != wantFields {
					t.Fatalf("%s CSV row %d has %d fields, header has %d", exp, i+1, got, wantFields)
				}
			}
		})
	}
}

func TestRunTable1(t *testing.T) {
	sb := runCLI(t, "table1")
	out := sb.String()
	for _, want := range []string{"FloatOps*", "CascSHA", "MQConsume", "network-bound", "kvstore"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 missing %q:\n%s", want, out)
		}
	}
	// Exactly 6 FunctionBench stars, matching the paper.
	if got := strings.Count(out, "*"); got != 7 { // 6 function rows + 1 in the caption
		t.Fatalf("table1 has %d asterisks, want 7 (6 functions + caption)", got)
	}
}

func TestRunReport(t *testing.T) {
	sb := runCLI(t, "-n", "10", "report")
	out := sb.String()
	for _, want := range []string{
		"# MicroFaaS reproduction report",
		"## Headline",
		"## Fig 1", "## Fig 3", "## Fig 4", "## Fig 5",
		"## Table II", "## Extensions",
		"| CascSHA |",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestRunWritesPromSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	runCLI(t, "-n", "5", "-prom", path, "fig3")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := telemetry.ParseText(f)
	if err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	if got, ok := samples.Value("microfaas_jobs_submitted_total"); !ok || got <= 0 {
		t.Fatalf("jobs_submitted = %v (present %v)", got, ok)
	}
	if got := samples.Sum("microfaas_function_energy_joules_total"); got <= 0 {
		t.Fatalf("no energy attributed: %v", got)
	}
}

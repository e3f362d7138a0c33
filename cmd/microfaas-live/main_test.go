package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/core"
	"microfaas/internal/node"
)

func TestLoadModeRunsFullSuite(t *testing.T) {
	opts := options{live: cluster.LiveOptions{Workers: 3, Seed: 2, Meter: true}, jobs: 34}
	l, err := cluster.StartLive(opts.live)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var sb strings.Builder
	if err := loadMode(&sb, l, opts); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"CascSHA", "RedisInsert", "end-to-end latency: p50 ", "completed 34/34", "modelled energy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("load output missing %q:\n%s", want, out)
		}
	}
}

func TestLoadModeReportsWorkerBootDelay(t *testing.T) {
	opts := options{live: cluster.LiveOptions{Workers: 2, Seed: 2, LiveBoardConfig: node.LiveBoardConfig{BootDelay: 20 * time.Millisecond}}, jobs: 4}
	l, err := cluster.StartLive(opts.live)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var sb strings.Builder
	if err := loadMode(&sb, l, opts); err != nil {
		t.Fatal(err)
	}
	// Every record must include the reboot pause.
	for _, r := range l.Orch.Collector().Records() {
		if r.Boot < 20*time.Millisecond {
			t.Fatalf("%s boot = %v, want >= 20ms", r.Function, r.Boot)
		}
	}
}

func TestReplayModeDrivesTrace(t *testing.T) {
	opts := options{live: cluster.LiveOptions{Workers: 2, Seed: 3, Meter: true}, speedup: 2}
	l, err := cluster.StartLive(opts.live)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	path := t.TempDir() + "/trace.csv"
	opts.replayPath = path
	trace := "at_ms,function\n0,CascSHA\n40,RedisInsert\n90,RegExMatch\n150,MQProduce\n"
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := replayMode(&sb, l, opts); err != nil {
		t.Fatal(err)
	}
	if got := l.Orch.Collector().Len(); got != 4 {
		t.Fatalf("replayed %d of 4 invocations", got)
	}
	if !strings.Contains(sb.String(), "completed 4/4") {
		t.Fatalf("report:\n%s", sb.String())
	}
}

func TestReplayModeValidation(t *testing.T) {
	l, err := cluster.StartLive(cluster.LiveOptions{Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var sb strings.Builder
	if err := replayMode(&sb, l, options{replayPath: "/nonexistent/trace.csv", speedup: 1}); err == nil {
		t.Fatal("missing trace accepted")
	}
	if err := replayMode(&sb, l, options{replayPath: "/dev/null"}); err == nil {
		t.Fatal("zero speedup accepted")
	}
}

// TestReportCountsInvocationsNotAttempts times out every attempt — each
// worker reboot outlasts the deadline — so each of n jobs fails three
// times. The report must count n failed invocations, not 3n failed
// attempts, in load mode and in replay mode, and replay must wait for
// every job's final result rather than for n attempt records.
func TestReportCountsInvocationsNotAttempts(t *testing.T) {
	live := cluster.LiveOptions{Workers: 2, Seed: 4, LiveBoardConfig: node.LiveBoardConfig{BootDelay: 30 * time.Millisecond},
		AttemptPolicy: core.AttemptPolicy{JobTimeout: 5 * time.Millisecond, MaxAttempts: 3}}
	trace := t.TempDir() + "/trace.csv"
	if err := os.WriteFile(trace, []byte("at_ms,function\n0,CascSHA\n1,RegExMatch\n2,CascSHA\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(*strings.Builder, *cluster.Live) error
		jobs int
	}{
		{"load", func(sb *strings.Builder, l *cluster.Live) error {
			return loadMode(sb, l, options{live: live, jobs: 4})
		}, 4},
		{"replay", func(sb *strings.Builder, l *cluster.Live) error {
			return replayMode(sb, l, options{live: live, replayPath: trace, speedup: 1})
		}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := cluster.StartLive(live)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			var sb strings.Builder
			err = tc.run(&sb, l)
			if want := fmt.Sprintf("%d invocations failed", tc.jobs); err == nil || err.Error() != want {
				t.Fatalf("error = %v, want %q:\n%s", err, want, sb.String())
			}
			if want := fmt.Sprintf("completed 0/%d", tc.jobs); !strings.Contains(sb.String(), want) {
				t.Fatalf("report lacks %q:\n%s", want, sb.String())
			}
			if got, want := l.Orch.Collector().ErrorCount(), 3*tc.jobs; got != want {
				t.Fatalf("%d failed attempts on record, want %d", got, want)
			}
		})
	}
}

// TestFlagsTheModeDoesNotRead holds parse to the rule that a flag set on
// the command line is read by the mode it picks, or the run is refused
// with that flag named before anything starts.
func TestFlagsTheModeDoesNotRead(t *testing.T) {
	rules := "../../examples/slo/rules.json"
	for _, tc := range []struct {
		args []string
		want string // "" = accepted
	}{
		{[]string{"-jobs", "-1"}, "-jobs"},
		{[]string{"-jobs", "17", "-slo", rules, "-speedup", "60", "-drain-timeout", "1s"}, "-drain-timeout"},
		{[]string{"-jobs", "17", "-speedup", "60"}, "-speedup"},
		{[]string{"-jobs", "17", "-power-idle", "1s", "-predict"}, "-predict"},
		{[]string{"-jobs", "17", "-trace-sample", "1"}, "-trace-sample"},
		{[]string{"-jobs", "17", "-listen", "127.0.0.1:0"}, "-listen"},
		{[]string{"-jobs", "5", "-replay", "trace.csv"}, "-jobs"},
		{[]string{"-replay", "trace.csv", "-pprof"}, "-pprof"},
		{[]string{"-replay", "trace.csv", "-scrape-interval", "2s"}, "-scrape-interval"},
		{[]string{"-speedup", "10"}, "-speedup"},
		{[]string{"-predict"}, "-predict requires -power-idle"},
		{[]string{"-jobs", "0", "-listen", "127.0.0.1:0"}, "-jobs"},
		{[]string{"-jobs", "17", "-workers", "2", "-boot-delay", "1ms", "-power-idle", "1s", "-policy", "energy-aware"}, ""},
		{[]string{"-replay", "trace.csv", "-speedup", "60", "-seed", "3"}, ""},
		{[]string{"-listen", "127.0.0.1:0", "-slo", rules, "-power-idle", "1s", "-predict", "-trace-sample", "1", "-pprof"}, ""},
	} {
		var stderr strings.Builder
		opts, status := parse(tc.args, &stderr)
		if tc.want == "" {
			if opts == nil || status != 0 {
				t.Errorf("%q refused (status %d): %s", tc.args, status, stderr.String())
			}
			continue
		}
		if opts != nil || status != 2 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: status %d, stderr %q; want status 2 naming %q", tc.args, status, stderr.String(), tc.want)
		}
	}
}

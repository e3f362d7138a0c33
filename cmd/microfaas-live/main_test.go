package main

import (
	"os"
	"strings"
	"testing"
	"time"

	"microfaas/internal/cluster"
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
	for _, want := range []string{"CascSHA", "RedisInsert", "completed 34/34", "modelled energy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("load output missing %q:\n%s", want, out)
		}
	}
}

func TestLoadModeReportsWorkerBootDelay(t *testing.T) {
	opts := options{live: cluster.LiveOptions{Workers: 2, Seed: 2, BootDelay: 20 * time.Millisecond}, jobs: 4}
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

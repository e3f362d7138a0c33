package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/core"
	"microfaas/internal/node"
	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
)

// settleGoldenSeed is a seed whose run takes every settle path and still
// drains (a hang ejects its worker for good, so too many strand the queue).
const settleGoldenSeed = 10

var updateSettleGolden = flag.Bool("update-settle-golden", false, "regenerate testdata/settle_golden.txt and testdata/shardfailover_golden.txt")

// compareGolden holds buf to the committed file, or rewrites the file
// under -update-settle-golden.
func compareGolden(t *testing.T, name string, buf []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateSettleGolden {
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(buf), path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-settle-golden): %v", err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("output drifted from the committed golden (%d bytes, want %d); diff a -update-settle-golden render against %s", len(buf), len(want), path)
	}
}

// TestSettleGoldenPR14 pins everything an attempt's settle writes besides
// its record — the /metrics exposition — to the bytes the tree rendered
// at PR 14, when `completed` and `deadlineExpired` each carried their own
// copy of the settle block, and the records' lifecycle as the trace view
// renders it. The nil-telemetry DeepEqual suites compare records only,
// so an attempt counter bumped under the wrong label would pass them. The
// run
// takes every settle path: clean completions, injected crashes (error),
// injected hangs rescued by the job deadline (timeout), backoff retries,
// breaker trips, and a function that spends through its energy budget.
func TestSettleGoldenPR14(t *testing.T) {
	tel := telemetry.New()
	s, err := cluster.NewMicroFaaSSim(8, cluster.SimConfig{
		Seed:        settleGoldenSeed,
		BoardConfig: node.BoardConfig{Faults: node.FaultPolicy{ErrorProb: 0.1, HangProb: 0.03}},
		AttemptPolicy: core.AttemptPolicy{
			MaxAttempts:      2,
			JobTimeout:       30 * time.Second,
			RetryBase:        50 * time.Millisecond,
			BreakerThreshold: 1,
			BreakerProbe:     1000 * time.Hour, // a wedged sim worker never comes back
		},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Orch.SetEnergyBudget("CascSHA", 8)
	s.Orch.SetEnergyBudget("MatMul", 1e6)
	coll, err := s.RunSuite(1, []string{"CascSHA", "MatMul", "RegExMatch", "RedisInsert", "HTMLGen"})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	fmt.Fprintln(&buf, "== records ==")
	if err := coll.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "== traces ==")
	if err := trace.WriteNDJSON(&buf, trace.Traces(coll)); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "== metrics ==")
	if err := tel.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "== budgets ==")
	for _, b := range s.Orch.EnergyBudgets() {
		fmt.Fprintf(&buf, "%s limit=%g spent=%.6f exhausted=%v\n", b.Function, b.LimitJoules, b.SpentJoules, b.Exhausted)
	}

	// The golden is only worth its bytes if the run really took every path.
	out := buf.String()
	for _, want := range []string{
		`"phase":"settle"`, `"detail":"ok"`, `"detail":"error"`, `"detail":"timeout"`,
		`"phase":"retry"`,
		`result="timeout"} `, `to="open"} `, "CascSHA limit=8", "exhausted=true",
		`microfaas_function_invocations_total{function="MatMul",result="error"} `,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("settle golden run never produced %q; pick a seed that does", want)
		}
	}
	compareGolden(t, "settle_golden.txt", buf.Bytes())
}

// TestShardFailoverGoldenPR14 pins the one experiment outside WriteAll's
// golden: its pre/post rate-window counts are read off every shard's
// record table, the loop this PR moves onto the shared trace summary.
func TestShardFailoverGoldenPR14(t *testing.T) {
	var buf bytes.Buffer
	for seed := int64(1); seed <= 2; seed++ {
		res, err := ShardFailover(ShardFailoverConfig{
			Shards:          8,
			WorkersPerShard: 4,
			Kills:           2,
			Bursts:          60,
			BurstEvery:      250 * time.Millisecond,
			JobsPerBurst:    8,
			KeySpace:        32,
			RunConfig:       RunConfig{Seed: seed, Parallel: 1},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fmt.Fprintf(&buf, "== shardfailover seed %d ==\n", seed)
		if err := WriteShardFailover(&buf, res); err != nil {
			t.Fatal(err)
		}
		for _, a := range res.Arms {
			fmt.Fprintf(&buf, "%s completed=%d errors=%d pre=%v post=%v recovery=%v p99=%v makespan=%v\n",
				a.Name, a.Completed, a.Errors, a.PrePerMin, a.PostPerMin, a.Recovery, a.P99S, a.MakespanS)
		}
	}
	compareGolden(t, "shardfailover_golden.txt", buf.Bytes())
}

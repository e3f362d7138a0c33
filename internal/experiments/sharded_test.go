package experiments

import (
	"bytes"
	"testing"
)

// smallShardedCfg keeps the four-arm experiment fast enough for the
// test suite while still exercising stealing and rebalancing.
func smallShardedCfg(seed int64, parallel int) ShardedRackConfig {
	return ShardedRackConfig{
		Shards:          4,
		WorkersPerShard: 12,
		JobsPerWorker:   3,
		KeySpace:        64,
		RunConfig:       RunConfig{Seed: seed, Parallel: parallel},
	}
}

// TestShardedRackDeterministicAcrossParallelism renders the sharded
// report serially and at Parallel: 8 for several seeds and requires the
// bytes to match — the repo-wide contract that parallelism is an
// execution detail, never an input.
func TestShardedRackDeterministicAcrossParallelism(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		render := func(parallel int) []byte {
			r, err := ShardedRack(smallShardedCfg(seed, parallel))
			if err != nil {
				t.Fatalf("seed %d parallel %d: %v", seed, parallel, err)
			}
			var buf bytes.Buffer
			if err := WriteShardedRack(&buf, r); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		serial, parallel := render(1), render(8)
		if !bytes.Equal(serial, parallel) {
			t.Fatalf("seed %d: serial and parallel sharded reports differ:\n--- serial ---\n%s--- parallel ---\n%s",
				seed, serial, parallel)
		}
	}
}

// TestShardedRackArms checks the experiment's qualitative claims at
// small scale: all arms complete everything, the hot-key/no-steal arm
// has the worst p99, and stealing pulls it back down.
func TestShardedRackArms(t *testing.T) {
	r, err := ShardedRack(smallShardedCfg(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Arms) != 4 {
		t.Fatalf("%d arms", len(r.Arms))
	}
	byName := map[string]ShardedArm{}
	total := 4 * 12 * 3
	for _, a := range r.Arms {
		byName[a.Name] = a
		if a.Completed != total {
			t.Fatalf("arm %s completed %d of %d (errors %d)", a.Name, a.Completed, total, a.Errors)
		}
	}
	hotPlain, hotSteal := byName["hotkey/plain"], byName["hotkey/steal"]
	if hotPlain.Stolen != 0 {
		t.Fatalf("no-steal arm migrated %d jobs", hotPlain.Stolen)
	}
	if hotSteal.Stolen == 0 {
		t.Fatal("steal arm migrated nothing under hot-key skew")
	}
	if hotSteal.P99S >= hotPlain.P99S {
		t.Fatalf("stealing did not reduce hot-key p99: plain=%.2fs steal=%.2fs", hotPlain.P99S, hotSteal.P99S)
	}
	if full := byName["uniform/full"]; full.FuncPerMin <= 0 {
		t.Fatalf("uniform/full throughput %v", full.FuncPerMin)
	}
}

package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/core"
	"microfaas/internal/model"
	"microfaas/internal/shard"
	"microfaas/internal/telemetry"
	"microfaas/internal/tsdb"
)

// TestTSDBGoldenPR18 pins what the time-series store answers to the bytes
// the tree rendered at PR 18, when a series kept one Point per scrape in
// a ring and folded every sample into both tiers as it arrived. Two
// parts: the alert timelines of the two -slo experiments, through the
// experiments themselves (the two-hour powermgmt day is 1,440 scrapes,
// past the 1,024 samples a series retains); and digests of everything a
// store exports and answers after a sharded run with two shards killed —
// the whole NDJSON export, a windowed one, and every metric under every
// op with its plot points — once at the default capacities and once at
// capacities so small (six seconds of samples, three buckets a tier)
// that the rules' own 8–20 s windows are answered from the tiers.
// Regenerate only from a tree whose storage is trusted:
// go test -run TSDBGoldenPR18 -update-settle-golden.
func TestTSDBGoldenPR18(t *testing.T) {
	rules, err := tsdb.LoadRules(filepath.Join("..", "..", "examples", "slo", "rules.json"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer

	fmt.Fprintln(&buf, "== shardfailover -slo ==")
	sf, err := ShardFailover(ShardFailoverConfig{
		Shards: 8, WorkersPerShard: 4, Kills: 2, Bursts: 60, JobsPerBurst: 8, KeySpace: 32,
		Seed: 1, Parallel: 1, SLO: rules,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range sf.Arms {
		if err := WriteAlertTimeline(&buf, a.Name, a.Alerts); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintln(&buf, "== powermgmt -slo -predict ==")
	pm, err := PowerMgmt(PowerMgmtConfig{Levels: []float64{0.3}, Seed: 1, Parallel: 1, SLO: rules, Predict: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, lv := range pm.Levels {
		for _, arm := range lv.arms() {
			if err := WriteAlertTimeline(&buf, arm.Name, arm.Alerts); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, cfg := range []tsdb.Config{{}, {RawCapacity: 24, TierCapacity: 3}} {
		fmt.Fprintf(&buf, "== store after a sharded run, RawCapacity %d TierCapacity %d ==\n", cfg.RawCapacity, cfg.TierCapacity)
		store := tsdb.New(cfg)
		if err := store.SetRules(rules); err != nil {
			t.Fatal(err)
		}
		shardedRunInto(t, store)
		digestStore(t, &buf, store)
	}
	compareGolden(t, "tsdb_golden.txt", buf.Bytes())
}

// shardedRunInto drives shardfailover's failover arm in small — 8 shards
// of 4 workers, timed bursts, two shards killed a tick apart — with store
// scraped on every aggregator tick and then past the horizon.
func shardedRunInto(t *testing.T, store *tsdb.Store) {
	t.Helper()
	s, err := cluster.NewShardedMicroFaaSSim(8, 4,
		cluster.SimConfig{Seed: 1, Policy: core.AssignLeastLoaded, Telemetry: telemetry.New()},
		shard.Config{
			Steal:      shard.StealConfig{Enabled: true, MaxPerTick: 4096},
			Membership: shard.MembershipConfig{Enabled: true},
		})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachTSDB(store)
	const bursts, every = 60, 250 * time.Millisecond
	fns := model.Functions()
	for b := 0; b < bursts; b++ {
		b := b
		s.Engine.At(time.Duration(b)*every, func() {
			for j := 0; j < 8; j++ {
				n := b*8 + j
				s.Plane.Submit("u/"+strconv.Itoa(n%32), fns[n%len(fns)].Name, nil, nil)
			}
		})
	}
	horizon := bursts * every
	s.ScheduleKill(horizon*3/10, 5)
	s.ScheduleKill(horizon*3/10+shard.DefaultStealInterval, 1)
	for at := horizon; at <= 3*horizon; at += 500 * time.Millisecond {
		at := at
		s.Engine.At(at, func() { store.Scrape(at) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// digestStore writes a line per export and query family: its size and
// SHA-256. Alert history, SLO status and forecasts go in whole.
func digestStore(t *testing.T, buf *bytes.Buffer, store *tsdb.Store) {
	t.Helper()
	digest := func(name string, b []byte) {
		fmt.Fprintf(buf, "%s: %d bytes, %d lines, sha256 %x\n", name, len(b), bytes.Count(b, []byte("\n")), sha256.Sum256(b))
	}
	last, scrapes := store.LastScrape()
	fmt.Fprintf(buf, "%d scrapes, last at %v, %d series\n", scrapes, last, store.SeriesCount())
	for _, window := range []time.Duration{0, 10 * time.Second} {
		var out bytes.Buffer
		if err := store.WriteNDJSON(&out, "", nil, window); err != nil {
			t.Fatal(err)
		}
		digest(fmt.Sprintf("ndjson window=%v", window), out.Bytes())
	}
	for _, window := range []time.Duration{3 * time.Second, 20 * time.Second, time.Hour} {
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		for _, metric := range store.MetricNames() {
			for _, op := range []tsdb.Op{tsdb.OpLast, tsdb.OpAvg, tsdb.OpMin, tsdb.OpMax, tsdb.OpIncrease, tsdb.OpRate} {
				res, err := store.Query(tsdb.Query{Metric: metric, Op: op, Window: window, Range: op == tsdb.OpLast})
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "%s %s ", metric, op)
				if err := enc.Encode(res); err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := store.Query(tsdb.Query{Metric: tsdb.DefaultLatencyMetric, Op: tsdb.OpQuantile, Q: 0.99, Window: window})
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		digest(fmt.Sprintf("query range=1 window=%v", window), out.Bytes())
	}
	enc := json.NewEncoder(buf)
	for _, v := range []any{store.AlertHistory(), store.SLOStatus(), store.Forecasts()} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
}

package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
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
// past the 1,024 samples a series retains); and digests, one per metric
// name, of everything a store exports and answers after a sharded run
// with two shards killed — the whole NDJSON export, a windowed one, and
// every op with its plot points — once at the default capacities and
// once at capacities so small (six seconds of samples, three buckets a
// tier) that the rules' own 8–20 s windows are answered from the tiers.
// The per-metric split was rendered by the PR 24 tree.
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
		RunConfig: RunConfig{Seed: 1, Parallel: 1}, SLO: rules,
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
	pm, err := PowerMgmt(PowerMgmtConfig{Levels: []float64{0.3}, RunConfig: RunConfig{Seed: 1, Parallel: 1}, SLO: rules, Predict: true})
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
		scrapes, last := shardedRunInto(t, store, nil)
		// The size line prints the harness's count; the store's export
		// must agree with it: its newest instant is the last scrape, and
		// at the default capacity, which retains the whole run, it holds
		// one instant per scrape.
		n, at := exportedInstants(t, store)
		if at != last || (cfg.RawCapacity == 0 && n != scrapes) {
			t.Fatalf("config %+v: export holds %d instants, newest %v; the run made %d scrapes, last at %v", cfg, n, at, scrapes, last)
		}
		digestStore(t, &buf, store, scrapes, last)
	}
	compareGolden(t, "tsdb_golden.txt", buf.Bytes())
}

// exportedInstants returns how many distinct instants store's whole
// export holds and the newest of them.
func exportedInstants(t *testing.T, store *tsdb.Store) (n int, newest time.Duration) {
	t.Helper()
	var out bytes.Buffer
	if err := store.WriteNDJSON(&out, "", nil, 0); err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	dec := json.NewDecoder(&out)
	for dec.More() {
		var p struct {
			AtMS float64 `json:"at_ms"`
		}
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		seen[p.AtMS] = true
		if at := time.Duration(p.AtMS * float64(time.Millisecond)); at > newest {
			newest = at
		}
	}
	return len(seen), newest
}

// shardedRunInto drives shardfailover's failover arm in small — 8 shards
// of 4 workers, timed bursts, two shards killed a tick apart — with store
// scraped on every aggregator tick and then past the horizon. hook, when
// set, is called once the store is attached and returns what every scrape
// calls in place of store.Scrape. It returns how many scrapes the store
// recorded and when the last one was: like the store, it counts a scrape
// at an instant not after the previous one as none.
func shardedRunInto(t *testing.T, store *tsdb.Store, hook func(*cluster.ShardedSim) func(time.Duration)) (scrapes int, last time.Duration) {
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
	scrape := store.Scrape
	if hook != nil {
		scrape = hook(s)
	}
	tick := func(now time.Duration) {
		if scrapes == 0 || now > last {
			scrapes, last = scrapes+1, now
		}
		scrape(now)
	}
	s.Plane.SetTickHook(tick)
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
		s.Engine.At(at, func() { tick(at) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return scrapes, last
}

// TestTSDBAskedWorkersMatchPerWorkerIngest names every worker to the
// store before its first scrape, then runs shardedRunInto, and holds each
// worker-labelled series the store exports to the bytes a per-worker
// store exports for it — one that records every worker's series, as the
// store did before it summed them per shard. The reference is fed from
// Registry.Snapshot at every scrape: it mirrors each worker-labelled
// sample into a registry of its own under the label worker_, which the
// store does not sum, and the rename is undone in its export. (worker_
// sorts where worker does among these families' labels — kind, result,
// shard, to — so the rename moves no byte but its own.)
func TestTSDBAskedWorkersMatchPerWorkerIngest(t *testing.T) {
	for _, cfg := range []tsdb.Config{{}, {RawCapacity: 24, TierCapacity: 3}} {
		store, ref := tsdb.New(cfg), tsdb.New(cfg)
		mirror := telemetry.NewRegistry()
		ref.AddSource("", mirror)
		workers := map[string]bool{}
		shardedRunInto(t, store, func(s *cluster.ShardedSim) func(time.Duration) {
			// The registries AttachTSDB gave the store, with their shard labels.
			type source struct {
				shard string
				reg   *telemetry.Registry
			}
			sources := []source{{"", s.Plane.Registry()}, {"", s.SharedTelemetry.Registry()}}
			for si, tel := range s.Telemetries {
				sources = append(sources, source{fmt.Sprintf("shard-%02d", si), tel.Registry()})
			}
			snapshot := func(src source) telemetry.Samples {
				if src.shard == "" {
					return src.reg.Snapshot("", "")
				}
				return src.reg.Snapshot("shard", src.shard)
			}
			for _, src := range sources {
				for _, smp := range snapshot(src) {
					if w, ok := smp.Labels["worker"]; ok && !workers[w] {
						workers[w] = true
						if _, err := store.Query(tsdb.Query{Metric: smp.Name, Match: map[string]string{"worker": w}}); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			return func(at time.Duration) {
				for _, src := range sources {
					for _, smp := range snapshot(src) {
						if _, ok := smp.Labels["worker"]; !ok {
							continue
						}
						names := make([]string, 0, len(smp.Labels))
						for k := range smp.Labels {
							names = append(names, k)
						}
						sort.Strings(names)
						kv := make([]string, 0, 2*len(names))
						for _, k := range names {
							name := k
							if k == "worker" {
								name = "worker_"
							}
							kv = append(kv, name, smp.Labels[k])
						}
						mirror.Gauge(smp.Name, "", kv...).Set(smp.Value)
					}
				}
				store.Scrape(at)
				ref.Scrape(at)
			}
		})
		if len(workers) != 32 {
			t.Fatalf("named %d workers before the first scrape, want 32", len(workers))
		}
		got := workerSeries(t, store, `"worker":`, "")
		want := workerSeries(t, ref, `"worker_":`, `"worker":`)
		if len(got) != len(want) || len(want) < 2*len(workers) {
			t.Fatalf("config %+v: %d worker series exported, the per-worker store %d", cfg, len(got), len(want))
		}
		for key, lines := range want {
			if got[key] != lines {
				t.Fatalf("config %+v: series %s exports\n%.400s\nthe per-worker store\n%.400s", cfg, key, got[key], lines)
			}
		}
	}
}

// workerSeries exports store and returns, per series whose labels hold
// label, its lines in export order, with label renamed to as.
func workerSeries(t *testing.T, store *tsdb.Store, label, as string) map[string]string {
	t.Helper()
	var out bytes.Buffer
	if err := store.WriteNDJSON(&out, "", nil, 0); err != nil {
		t.Fatal(err)
	}
	series := map[string]string{}
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if !strings.Contains(line, label) {
			continue
		}
		if as != "" {
			line = strings.Replace(line, label, as, 1)
		}
		key := line[:strings.Index(line, `"at_ms":`)]
		series[key] += line
	}
	return series
}

// digestStore writes the store's size (scrapes and last as shardedRunInto
// counted them, checked against the export), then a line per metric name — in
// MetricNames order — for each export window and each query window: its
// size and SHA-256. A change to one family's series so moves only that
// family's lines. Alert history, SLO status and forecasts go in whole.
func digestStore(t *testing.T, buf *bytes.Buffer, store *tsdb.Store, scrapes int, last time.Duration) {
	t.Helper()
	digest := func(name string, b []byte) {
		fmt.Fprintf(buf, "%s: %d bytes, %d lines, sha256 %x\n", name, len(b), bytes.Count(b, []byte("\n")), sha256.Sum256(b))
	}
	fmt.Fprintf(buf, "%d scrapes, last at %v, %d series\n", scrapes, last, store.SeriesCount())
	names := store.MetricNames()
	for _, window := range []time.Duration{0, 10 * time.Second} {
		for _, metric := range names {
			var out bytes.Buffer
			if err := store.WriteNDJSON(&out, metric, nil, window); err != nil {
				t.Fatal(err)
			}
			digest(fmt.Sprintf("ndjson window=%v %s", window, metric), out.Bytes())
		}
	}
	for _, window := range []time.Duration{3 * time.Second, 20 * time.Second, time.Hour} {
		for _, metric := range names {
			var out bytes.Buffer
			enc := json.NewEncoder(&out)
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
			digest(fmt.Sprintf("query range=1 window=%v %s", window, metric), out.Bytes())
		}
		res, err := store.Query(tsdb.Query{Metric: tsdb.DefaultLatencyMetric, Op: tsdb.OpQuantile, Q: 0.99, Window: window})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := json.NewEncoder(&out).Encode(res); err != nil {
			t.Fatal(err)
		}
		digest(fmt.Sprintf("query quantile=0.99 window=%v %s", window, tsdb.DefaultLatencyMetric), out.Bytes())
	}
	enc := json.NewEncoder(buf)
	for _, v := range []any{store.AlertHistory(), store.SLOStatus(), store.Forecasts()} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
}

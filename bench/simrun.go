package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"microfaas"
	"microfaas/internal/tsdb"
)

// simKind is one sharded-simulator workload: its cluster shape and whether
// the observability stack is attached.
type simKind struct {
	name                    string
	shards, workersPerShard int
	observed                bool
}

var simKinds = []simKind{
	{name: "sim_sharded", shards: 32, workersPerShard: 1024},
	{name: "sim_observed", shards: 8, workersPerShard: 256, observed: true},
}

const (
	simJobsPerWorker = 4
	simKeySpace      = 4096
	simHotShare      = 0.30 // of traffic on the one hot key
)

// simTraffic is the pre-generated submission stream: 30% of jobs on one hot
// key (which backs one shard up, so bounded-load routing and stealing have
// work to do), the rest spread over simKeySpace keys.
type simTraffic struct {
	keys, functions []string
}

func genSimTraffic(seed int64, jobs int) simTraffic {
	rng := rand.New(rand.NewSource(seed))
	names := microfaas.FunctionNames()
	t := simTraffic{keys: make([]string, jobs), functions: make([]string, jobs)}
	for j := 0; j < jobs; j++ {
		if rng.Float64() < simHotShare {
			t.keys[j] = "hot"
		} else {
			t.keys[j] = "u/" + strconv.Itoa(rng.Intn(simKeySpace))
		}
		t.functions[j] = names[rng.Intn(len(names))]
	}
	return t
}

// runSimTrial builds the cluster, submits the whole stream through the
// plane at virtual time zero, and drains it. On the traced pass every
// scrape the aggregator tick makes is timed from outside, and an observed
// workload is followed by the same run unobserved, the base of
// sim.observed_overhead_x.
func runSimTrial(k simKind, seed int64, traced bool) (trialReport, error) {
	t := trialReport{Workload: k.name, Correct: true, CalibMS: ms(calibrate())}
	traffic := genSimTraffic(seed, k.shards*k.workersPerShard*simJobsPerWorker)
	runtime.GC() // generating the traffic is not set-up cost

	begin := time.Now()
	opts := microfaas.SimOptions{Seed: seed, Policy: microfaas.AssignLeastLoaded}
	if k.observed {
		opts.Telemetry = microfaas.NewTelemetry()
	}
	s, err := microfaas.NewShardedMicroFaaSSim(k.shards, k.workersPerShard, opts, microfaas.ShardPlaneConfig{
		Steal:     microfaas.ShardStealConfig{Enabled: true, MaxPerTick: 4096},
		Rebalance: microfaas.ShardRebalanceConfig{Enabled: true},
	})
	if err != nil {
		return t, err
	}
	var store *tsdb.Store
	var scrapes []time.Duration
	if k.observed {
		rules, err := tsdb.ParseRules(sloRules)
		if err != nil {
			return t, err
		}
		store = tsdb.New(tsdb.Config{})
		if err := store.SetRules(rules); err != nil {
			return t, err
		}
		s.AttachTSDB(store)
		if traced {
			s.Plane.SetTickHook(func(now time.Duration) {
				start := time.Now()
				store.Scrape(now)
				scrapes = append(scrapes, time.Since(start))
			})
		}
	}
	t.SetupS = time.Since(begin).Seconds()

	heap0 := liveHeap()
	start := startWindow()
	for j, key := range traffic.keys {
		if id, _ := s.Plane.Submit(key, traffic.functions[j], nil, nil); id == 0 {
			return t, fmt.Errorf("%s: submission %d refused", k.name, j)
		}
	}
	submit := time.Since(start.wall)
	if err := s.Run(); err != nil {
		return t, err
	}
	w := start.stop()
	t.window(w)
	t.SubmitS, t.RunS = submit.Seconds(), (w.elapsed - submit).Seconds()
	t.RetainedB = float64(liveHeap()) - float64(heap0)

	// A job that did not settle, or settled with an error, failed.
	st := s.Stats()
	t.Sim = &st
	t.Attempted = len(traffic.keys)
	t.Completed = st.Completed
	t.Failed = t.Attempted - st.Completed
	t.Correct = t.Failed == 0 && st.Errors == 0
	t.P50MS, t.P99MS = ms(st.P50), ms(st.P99)

	if store != nil {
		now := s.Engine.Now() + time.Second
		allocs := allocsOf(func() { store.Scrape(now) })
		start := time.Now()
		if err := s.Plane.WriteMergedMetrics(io.Discard); err != nil {
			return t, err
		}
		t.observability(scrapes, allocs, store.SeriesCount(), time.Since(start))
	}
	runtime.KeepAlive(s)
	if traced && k.observed {
		bare := k
		bare.observed = false
		b, err := runSimTrial(bare, seed, false)
		if err != nil {
			return t, err
		}
		t.BareRunS = b.RunS
	}
	return t, nil
}

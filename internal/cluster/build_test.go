package cluster

import (
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/gpio"
	"microfaas/internal/model"
	"microfaas/internal/node"
	"microfaas/internal/power"
	"microfaas/internal/powermgr"
	"microfaas/internal/shard"
	"microfaas/internal/telemetry"
)

// boardByBoard builds the cluster NewShardedMicroFaaSSim(shards, per, cfg,
// scfg) builds, one board at a time (a node.NewSimWorkers batch of one per
// board, so a meter device and a pin per call), each id formatted by fmt's
// %04d as the reference for boardIDs. cfg must carry no telemetry.
func boardByBoard(t *testing.T, shards, per int, cfg SimConfig, scfg shard.Config) *ShardedSim {
	t.Helper()
	b := newSimBuilder(cfg, gpio.NewController())
	s := &ShardedSim{Engine: b.engine, Meter: b.meter, GPIO: b.gpio, down: make([]bool, shards)}
	for si := 0; si < shards; si++ {
		workers := make([]*node.SimWorker, per)
		for i := range workers {
			w, err := node.NewSimWorkers(b.workerConfig(nil, nil), []string{fmt.Sprintf("s%02d-sbc-%04d", si, i)})
			if err != nil {
				t.Fatal(err)
			}
			workers[i] = w[0]
		}
		orch, pm, err := b.shard(si, shardLabel(si), nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		s.Telemetries = append(s.Telemetries, nil)
		s.Workers = append(s.Workers, workers)
		s.Orchs = append(s.Orchs, orch)
		s.PowerMgrs = append(s.PowerMgrs, pm)
	}
	plane, err := shard.NewPlane(core.SimRuntime{Engine: b.engine}, s.Orchs, scfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Plane = plane
	return s
}

// TestBoardIDsMatchFmt: every id boardIDs cuts is the one %0*d formats,
// past 10^width too (a 10,000-board rack names its boards sbc-000 …
// sbc-9999).
func TestBoardIDsMatchFmt(t *testing.T) {
	for _, c := range []struct {
		prefix string
		width  int
	}{{"sbc-", 3}, {"s07-sbc-", 4}, {"vm-001-", 3}} {
		ids := boardIDs(c.prefix, c.width, 12000)
		for i, id := range ids {
			if want := fmt.Sprintf("%s%0*d", c.prefix, c.width, i); id != want {
				t.Fatalf("board %d: %q, want %q", i, id, want)
			}
		}
	}
}

// meterOrder returns m's device ids in registration order, the order
// TotalEnergy sums them in. The meter exports no such list, so it is read
// by reflection from the unexported order slice.
func meterOrder(m *power.Meter) []string {
	order := reflect.ValueOf(m).Elem().FieldByName("order")
	ids := make([]string, order.Len())
	for i := range ids {
		ids[i] = order.Index(i).Elem().FieldByName("id").String()
	}
	return ids
}

// TestBulkBuildMatchesBoardByBoard: a power-managed 3-shard cluster built
// a shard per call is the cluster built board by board — the same ids,
// trace-name ordinals and meter registration order, and after one seeded
// run with injected faults and retries the same GPIO log (so the same pin
// per board), the same records and the same per-device and total energies.
func TestBulkBuildMatchesBoardByBoard(t *testing.T) {
	const shards, per, jobs = 3, 12, 400
	cfg := SimConfig{
		Seed: 5, Policy: core.AssignEnergyAware,
		BoardConfig:   node.BoardConfig{Faults: node.FaultPolicy{ErrorProb: 0.1}},
		AttemptPolicy: core.AttemptPolicy{MaxAttempts: 3},
		Power:         &powermgr.Policy{IdleTimeout: 5 * time.Second},
	}
	scfg := shard.Config{Steal: shard.StealConfig{Enabled: true}}
	bulk, err := NewShardedMicroFaaSSim(shards, per, cfg, scfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := boardByBoard(t, shards, per, cfg, scfg)
	fns := model.Functions()
	var ids []string
	for si := range ref.Workers {
		for i, w := range ref.Workers[si] {
			id := w.ID()
			if got := bulk.Workers[si][i].ID(); got != id {
				t.Fatalf("shard %d board %d: id %q, board by board %q", si, i, got, id)
			}
			if got, want := bulk.Orchs[si].Collector().Worker(id), ref.Orchs[si].Collector().Worker(id); got != want || int(got) != i {
				t.Fatalf("%s: worker ordinal %d, board by board %d, want %d", id, got, want, i)
			}
			ids = append(ids, id)
		}
	}
	for _, s := range []*ShardedSim{bulk, ref} {
		if got := meterOrder(s.Meter); !reflect.DeepEqual(got, ids) {
			t.Fatalf("meter registration order %q, want the boards' %q", got, ids)
		}
	}
	for _, s := range []*ShardedSim{bulk, ref} {
		for j := 0; j < jobs; j++ {
			if id, _ := s.Plane.Submit("k/"+strconv.Itoa(j%29), fns[j%len(fns)].Name, nil, nil); id == 0 {
				t.Fatalf("job %d refused", j)
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if bulk.Engine.Now() != ref.Engine.Now() {
		t.Fatalf("run ends at %v, board by board %v", bulk.Engine.Now(), ref.Engine.Now())
	}
	events := bulk.GPIO.Events()
	if !reflect.DeepEqual(events, ref.GPIO.Events()) {
		t.Fatal("GPIO logs differ")
	}
	wired := map[string]int{}
	for _, e := range events {
		wired[e.Node] = e.Pin
	}
	for n, id := range ids {
		if wired[id] != n+1 {
			t.Fatalf("%s actuated through pin %d, want %d (wiring order)", id, wired[id], n+1)
		}
	}
	for si := range bulk.Orchs {
		got, want := bulk.Orchs[si].Collector().Records(), ref.Orchs[si].Collector().Records()
		if len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d: %d records, board by board %d, or they differ", si, len(got), len(want))
		}
	}
	if st := bulk.Stats(); st.Errors == 0 || st.Completed != jobs {
		t.Fatalf("%d completed, %d errors: want all %d settled and some injected faults", st.Completed, st.Errors, jobs)
	}
	now := bulk.Engine.Now()
	for _, id := range ids {
		if e := bulk.Meter.Energy(id, now); e != ref.Meter.Energy(id, now) || e <= 0 {
			t.Fatalf("%s: %v J, board by board %v J", id, e, ref.Meter.Energy(id, now))
		}
	}
	if got, want := bulk.Meter.TotalEnergy(now), ref.Meter.TotalEnergy(now); got != want {
		t.Fatalf("total %v J, board by board %v J", got, want)
	}
}

// TestShardBuildAllocsFlat pins what a board costs to build: nothing of
// its own. Past a shard's fixed cost (its orchestrator, ring and engine,
// and the phase handlers its batch registers once), a board's worker,
// meter device, GPIO pin, slot and name come from per-shard slabs, so a
// board adds only the amortized regrowth of what the shard appends to.
func TestShardBuildAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	build := func(shards, n int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := NewShardedMicroFaaSSim(shards, n, SimConfig{Seed: 1}, shard.Config{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	sizes := []int{16, 64, 256, 1024}
	allocs := make([]float64, len(sizes))
	for i, n := range sizes {
		allocs[i] = build(1, n)
	}
	for i := 1; i < len(sizes); i++ {
		if per := (allocs[i] - allocs[i-1]) / float64(sizes[i]-sizes[i-1]); per > 0.05 {
			t.Errorf("%d → %d boards: %.3f allocations per added board, want ≤ 0.05", sizes[i-1], sizes[i], per)
		}
	}
	if per := allocs[len(sizes)-1] / 1024; per > 0.15 {
		t.Errorf("a 1,024-board shard: %.3f allocations per board, want ≤ 0.15", per)
	}
	// A rack of shards shares the meter and the GPIO plane: sized for the
	// rack once, their indices do not regrow as each shard registers
	// (2,157 allocations for 32 × 1,024 boards; 2,448 regrowing, 67,914
	// with per-board callbacks).
	for _, c := range []struct {
		shards int
		max    float64
	}{{8, 0.1}, {32, 0.07}} {
		if per := build(c.shards, 1024) / float64(c.shards*1024); per > c.max {
			t.Errorf("a %d × 1,024-board rack: %.4f allocations per board, want ≤ %v", c.shards, per, c.max)
		}
	}
}

// TestSmallClusterBytes guards small clusters against slabs sized for big
// ones: a 10-board cluster allocates no more than the 23,200 bytes it
// takes with its boards' phases registered once per batch (28,136 when
// every board was built on its own, 23,976 when each bound its own phase
// callbacks).
func TestSmallClusterBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const runs = 200
	build := func() {
		if _, err := NewMicroFaaSSim(model.SBCCount, SimConfig{Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	build() // the shared function table is built on first use
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 23200 {
		t.Fatalf("a %d-board cluster allocates %d bytes, want ≤ 23,200", model.SBCCount, got)
	}
}

// TestObservedRackBytes pins what an observed 8 × 256-board rack (each
// shard with its own telemetry, stealing and rebalancing on) allocates to
// build: its metric families, slabs and record windows, and no
// per-shard buffer sized for traffic it has not seen. It takes about
// 6.35 MB; a 4,096-event lifecycle ring per shard made it 9.89 MB.
func TestObservedRackBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const runs = 5
	build := func() {
		_, err := NewShardedMicroFaaSSim(8, 256, SimConfig{Seed: 1, Policy: core.AssignLeastLoaded, Telemetry: telemetry.New()}, shard.Config{
			Steal:     shard.StealConfig{Enabled: true, MaxPerTick: 4096},
			Rebalance: shard.RebalanceConfig{Enabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	build() // the shared function table is built on first use
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 6_800_000 {
		t.Fatalf("an observed 8 × 256-board rack allocates %d bytes, want ≤ 6,800,000", got)
	}
}

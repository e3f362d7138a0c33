package main

import (
	"slices"
	"strings"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/forecast"
	"microfaas/internal/gateway"
	"microfaas/internal/model"
	"microfaas/internal/node"
	"microfaas/internal/powermgr"
	"microfaas/internal/shard"
	"microfaas/internal/telemetry"
	"microfaas/internal/tsdb"
)

// TestKnownMetricsIsWhatAnInstrumentedRunRegisters holds the catalogue
// slolint validates rules against to the families the platform really
// registers, in both directions: a family nothing registers is a rule
// that could never fire, and a registered family missing from the list
// is one no rule may name. The run turns on every instrumented layer —
// per-shard telemetry with fault-injecting workers and an energy budget,
// the power manager, the forecast controller steering it, the shard
// plane, a gateway over the plane — and scrapes them all into one store,
// whose synthetic arrival series count as registered too.
func TestKnownMetricsIsWhatAnInstrumentedRunRegisters(t *testing.T) {
	tel := telemetry.New()
	s, err := cluster.NewShardedMicroFaaSSim(2, 4, cluster.SimConfig{
		Seed:        1,
		Telemetry:   tel,
		BoardConfig: node.BoardConfig{Faults: node.FaultPolicy{ErrorProb: 0.1}},
		Power:       &powermgr.Policy{},
	}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gateway.New(s.Plane, gateway.Options{}); err != nil {
		t.Fatal(err)
	}
	store := tsdb.New(tsdb.Config{})
	s.AttachTSDB(store)
	ctl, err := forecast.NewController(forecast.ControllerConfig{
		Store: store, Manager: s.PowerMgrs[0], Telemetry: tel,
		Policy: forecast.Policy{Tick: time.Second, Horizon: time.Second, CycleTime: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	fns := model.Functions()
	s.Orchs[0].SetEnergyBudget(fns[0].Name, 1)
	for i := 0; i < 20; i++ {
		at := time.Duration(i) * time.Second
		s.Engine.At(at, func() {
			for _, f := range fns {
				s.Plane.Submit(f.Name, f.Name, nil, nil)
			}
			store.Scrape(at)
			ctl.Tick(at)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	// The store keeps a histogram as its _bucket, _sum and _count
	// series; the catalogue names the family.
	names := store.MetricNames()
	var registered []string
	for _, name := range names {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && slices.Contains(names, base+"_bucket") {
				name = base
				break
			}
		}
		if !slices.Contains(registered, name) {
			registered = append(registered, name)
		}
	}
	known := tsdb.KnownMetrics()
	for _, name := range registered {
		if !slices.Contains(known, name) {
			t.Errorf("%s is registered but not in tsdb.KnownMetrics: slolint would reject a rule on it", name)
		}
	}
	for _, name := range known {
		if !slices.Contains(registered, name) {
			t.Errorf("tsdb.KnownMetrics lists %s, which no instrumented layer registers", name)
		}
	}
	if t.Failed() {
		t.Logf("registered families: %v", registered)
	}
}

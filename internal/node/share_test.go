package node_test

import (
	"testing"

	"microfaas/internal/cluster"
	"microfaas/internal/model"
	"microfaas/internal/node"
	"microfaas/internal/shard"
)

// TestClusterWorkersShareOneTable: every board of a sharded cluster holds
// the one table its builder made from SimConfig.Specs.
func TestClusterWorkersShareOneTable(t *testing.T) {
	s, err := cluster.NewShardedMicroFaaSSim(3, 4, cluster.SimConfig{Specs: model.Functions()}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	first := node.FunctionsOf(s.Workers[0][0])
	for _, ws := range s.Workers {
		for _, w := range ws {
			if got := node.FunctionsOf(w); got != first {
				t.Fatalf("%s holds table %p, %s holds %p", w.ID(), got, s.Workers[0][0].ID(), first)
			}
		}
	}
	d, err := node.NewSimWorkers(node.SimWorkerConfig{Platform: model.ARM, Engine: s.Engine}, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if node.FunctionsOf(d[0]) == first {
		t.Fatal("a cluster with its own specs shares the package default table")
	}
}

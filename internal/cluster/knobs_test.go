package cluster

import (
	"reflect"
	"testing"

	"microfaas/internal/core"
	"microfaas/internal/node"
)

// sharedNames says why each name may be declared directly on both sides
// of a layer pair. Every other setting two layers share is declared once,
// by the layer that reads it, and embedded in the other.
var sharedNames = map[string]string{
	"Seed":       "bench/ names Seed in LiveOptions, SimOptions and core.Config composite literals, which cannot name a promoted field",
	"Policy":     "bench/ names Policy in a SimOptions composite literal",
	"ShardLabel": "bench/ names ShardLabel in a core.Config composite literal",
	"JobIDBase":  "bench/ names JobIDBase in a core.Config composite literal",
	"Workers":    "a count in LiveOptions, the fleet itself in core.Config",
	"Meter":      "a switch in LiveOptions, the meter device itself in LiveWorkerConfig",
	"Telemetry":  "the sharded sim gives each shard its own registry, so a layer's sink is not always its parent's",
}

// directFields lists the fields declared on t itself, not promoted from
// an embedded struct.
func directFields(t reflect.Type) map[string]bool {
	fs := map[string]bool{}
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); !f.Anonymous {
			fs[f.Name] = true
		}
	}
	return fs
}

// TestNoSettingDeclaredTwice is the regrowth guard for one knob, one
// field: it fails when a name is declared directly on both sides of a
// layer pair (the cluster would copy it across by hand) and sharedNames
// gives no reason, and when a sharedNames entry no longer applies.
func TestNoSettingDeclaredTwice(t *testing.T) {
	pairs := []struct{ upper, lower any }{
		{LiveOptions{}, core.Config{}},
		{SimConfig{}, core.Config{}},
		{SimConfig{}, node.SimWorkerConfig{}},
		{LiveOptions{}, node.LiveWorkerConfig{}},
	}
	used := map[string]bool{}
	for _, p := range pairs {
		upper, lower := reflect.TypeOf(p.upper), reflect.TypeOf(p.lower)
		lowerFields := directFields(lower)
		for name := range directFields(upper) {
			if !lowerFields[name] {
				continue
			}
			if _, ok := sharedNames[name]; !ok {
				t.Errorf("%s.%s is declared again as %s.%s: embed the lower layer's struct instead", upper, name, lower, name)
			}
			used[name] = true
		}
	}
	for name := range sharedNames {
		if !used[name] {
			t.Errorf("sharedNames lists %s, which no layer pair declares twice: drop the entry", name)
		}
	}
}

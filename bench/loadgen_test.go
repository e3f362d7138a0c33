package main

import (
	"bytes"
	"reflect"
	"testing"

	"microfaas"
)

func bodies(reqs []request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i] = r.body
	}
	return out
}

func TestGeneratorsAreSeeded(t *testing.T) {
	for name, gen := range map[string]func(int64, int) []request{"floor": genFloor, "suite": genSuite} {
		a, b, c := bodies(gen(7, 51)), bodies(gen(7, 51)), bodies(gen(8, 51))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed produced two different request streams", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: two seeds produced the same request stream", name)
		}
	}
}

func TestSuiteCoversEveryFunctionEqually(t *testing.T) {
	count := map[string]int{}
	for _, r := range genSuite(3, poolPerClient) {
		count[r.function]++
		if !bytes.Contains(r.body, r.args) {
			t.Fatalf("%s: body %s does not carry args %s", r.function, r.body, r.args)
		}
	}
	names := microfaas.FunctionNames()
	for _, n := range names {
		if count[n] != poolPerClient/len(names) {
			t.Errorf("%s appears %d times, want %d", n, count[n], poolPerClient/len(names))
		}
	}
}

func TestSimTrafficIsSeededAndSkewed(t *testing.T) {
	a, b, c := genSimTraffic(1, 8192), genSimTraffic(1, 8192), genSimTraffic(2, 8192)
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed produced two different submission streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds produced the same submission stream")
	}
	hot := 0
	for _, k := range a.keys {
		if k == "hot" {
			hot++
		}
	}
	if share := float64(hot) / float64(len(a.keys)); share < 0.27 || share > 0.33 {
		t.Errorf("hot key carries %.3f of traffic, want about %.2f", share, simHotShare)
	}
}

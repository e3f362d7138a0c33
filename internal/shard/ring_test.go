package shard

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

func TestNewRingValidates(t *testing.T) {
	if _, err := NewRing(0, 8); err == nil {
		t.Fatal("NewRing(0) succeeded")
	}
	if _, err := NewRing(-1, 8); err == nil {
		t.Fatal("NewRing(-1) succeeded")
	}
	if r, err := NewRing(4, 0); err != nil || len(r.points) != 4*DefaultVNodes {
		t.Fatalf("NewRing with zero vnodes should select the default budget: %v, %d points", err, len(r.points))
	}
	r, err := NewRing(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.weights) != 4 {
		t.Fatalf("ring built over %d shards", len(r.weights))
	}
}

func TestRingLookupDeterministic(t *testing.T) {
	a, _ := NewRing(8, DefaultVNodes)
	b, _ := NewRing(8, DefaultVNodes)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.Lookup(key) != b.Lookup(key) {
			t.Fatalf("two identical rings disagree on %q", key)
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	const n, keys = 8, 8000
	r, _ := NewRing(n, DefaultVNodes)
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		counts[r.Lookup(fmt.Sprintf("key-%d", i))]++
	}
	for s, c := range counts {
		// Expect keys/n ± a generous consistent-hashing spread.
		if c < keys/n/3 || c > keys/n*3 {
			t.Fatalf("shard %d got %d of %d keys (counts %v)", s, c, keys, counts)
		}
	}
}

// TestRingStabilityUnderGrowth is the consistent-hashing property test:
// growing n shards to n+1 must relocate roughly 1/(n+1) of the keys —
// and never more than ~2.5× that — while every unmoved key keeps its
// shard (indices below n are unchanged by construction).
func TestRingStabilityUnderGrowth(t *testing.T) {
	const keys = 20000
	for _, n := range []int{2, 4, 8, 16, 32} {
		before, _ := NewRing(n, DefaultVNodes)
		after, _ := NewRing(n+1, DefaultVNodes)
		moved := 0
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("key-%d", i)
			was, is := before.Lookup(key), after.Lookup(key)
			if was != is {
				if is != n {
					t.Fatalf("n=%d: key %q moved %d→%d, not to the new shard", n, key, was, is)
				}
				moved++
			}
		}
		ideal := float64(keys) / float64(n+1)
		if f := float64(moved); f > 2.5*ideal || f < ideal/2.5 {
			t.Fatalf("n=%d→%d moved %d keys, ideal %.0f", n, n+1, moved, ideal)
		}
	}
}

// TestRingReweightMovesFewKeys checks that point placement is
// weight-independent: halving one shard's weight relocates only keys
// that shard owned, and restoring the weight restores every key.
func TestRingReweightMovesFewKeys(t *testing.T) {
	const n, keys = 8, 20000
	r, _ := NewRing(n, DefaultVNodes)
	before := make([]int, keys)
	for i := range before {
		before[i] = r.Lookup(fmt.Sprintf("key-%d", i))
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	w[3] = 0.5
	if err := r.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	movedFromOthers := 0
	for i := range before {
		now := r.Lookup(fmt.Sprintf("key-%d", i))
		if now != before[i] && before[i] != 3 {
			movedFromOthers++
		}
	}
	if movedFromOthers != 0 {
		t.Fatalf("shrinking shard 3 moved %d keys owned by other shards", movedFromOthers)
	}
	w[3] = 1
	if err := r.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if now := r.Lookup(fmt.Sprintf("key-%d", i)); now != before[i] {
			t.Fatalf("key %d did not return home after weight restore: %d→%d", i, before[i], now)
		}
	}
}

// TestRingStabilityUnderRemoval is the Remove-side ~1/N property test:
// removing one of n shards must move exactly the keys that shard owned
// (roughly 1/n of the key space, never more than ~2.5×) and not one key
// owned by anyone else.
func TestRingStabilityUnderRemoval(t *testing.T) {
	const keys = 20000
	for _, n := range []int{2, 4, 8, 16, 32} {
		r, _ := NewRing(n, DefaultVNodes)
		victim := n / 2
		before := make([]int, keys)
		for i := range before {
			before[i] = r.Lookup(fmt.Sprintf("key-%d", i))
		}
		if err := r.Remove(victim); err != nil {
			t.Fatal(err)
		}
		if r.Members() != n-1 || r.present[victim] {
			t.Fatalf("n=%d: Members()=%d Present(%d)=%v after Remove", n, r.Members(), victim, r.present[victim])
		}
		moved := 0
		for i := range before {
			now := r.Lookup(fmt.Sprintf("key-%d", i))
			if now == victim {
				t.Fatalf("n=%d: key %d still routes to removed shard %d", n, i, victim)
			}
			if now != before[i] {
				if before[i] != victim {
					t.Fatalf("n=%d: key %d moved %d→%d but shard %d was not removed", n, i, before[i], now, victim)
				}
				moved++
			}
		}
		ideal := float64(keys) / float64(n)
		if f := float64(moved); f > 2.5*ideal || f < ideal/2.5 {
			t.Fatalf("n=%d: removal moved %d keys, ideal %.0f", n, moved, ideal)
		}
	}
}

// TestRingRemoveValidates covers the membership error paths: out-of-
// range ids, double remove, and the empty-ring guard.
func TestRingRemoveValidates(t *testing.T) {
	r, _ := NewRing(3, 32)
	if err := r.Remove(-1); err == nil {
		t.Fatal("Remove(-1) succeeded")
	}
	if err := r.Remove(0); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(0); err == nil {
		t.Fatal("double Remove succeeded")
	}
	if err := r.SetWeights([]float64{1, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(2); err == nil {
		t.Fatal("removing the last member succeeded")
	}
}

func TestRingSetWeightsValidates(t *testing.T) {
	r, _ := NewRing(4, 32)
	if err := r.SetWeights([]float64{1, 1}); err == nil {
		t.Fatal("wrong-length weights accepted")
	}
	if err := r.SetWeights([]float64{1, 1, math.NaN(), 1}); err == nil {
		t.Fatal("NaN weight accepted")
	}
	// Clamping: extreme weights survive as the clamp bounds.
	if err := r.SetWeights([]float64{100, 0.001, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if w := r.Weight(0); w > 4+1e-9 {
		t.Fatalf("weight 0 not clamped: %v", w)
	}
	if w := r.Weight(1); w < 0.25-1e-9 {
		t.Fatalf("weight 1 not clamped: %v", w)
	}
}

// TestRingBoundedLoadDiverts checks that LookupBounded walks past a
// shard already at its bound and falls back to the home shard when
// everyone is full.
func TestRingBoundedLoadDiverts(t *testing.T) {
	r, _ := NewRing(4, DefaultVNodes)
	home := r.Lookup("hot")
	loads := make([]int, 4)
	// Everyone idle: the bounded lookup routes home.
	if got := r.LookupBounded("hot", 1.25, 0, func(s int) int { return loads[s] }); got != home {
		t.Fatalf("idle bounded lookup %d != home %d", got, home)
	}
	// Saturate home: the key must divert to some other shard.
	loads[home] = 100
	got := r.LookupBounded("hot", 1.25, 100, func(s int) int { return loads[s] })
	if got == home {
		t.Fatal("bounded lookup kept a saturated home shard")
	}
	// Saturate everyone equally: fall back home rather than loop.
	for i := range loads {
		loads[i] = 100
	}
	if got := r.LookupBounded("hot", 1.25, 400, func(s int) int { return loads[s] }); got != home {
		t.Fatalf("all-full bounded lookup %d != home %d", got, home)
	}
	// Factor <= 1 is plain consistent hashing regardless of load.
	if got := r.LookupBounded("hot", -1, 400, func(s int) int { return loads[s] }); got != home {
		t.Fatalf("unbounded lookup %d != home %d", got, home)
	}
}

// TestRingReweightAllocs pins the merge at zero allocations: once the
// scratch for added points has grown, swinging every weight between two
// vectors (half the shards at each clamp end, then the reverse) rebuilds
// the ring without allocating.
func TestRingReweightAllocs(t *testing.T) {
	const n = 32
	r, _ := NewRing(n, DefaultVNodes)
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = 0.25, 4
		if i%2 == 1 {
			a[i], b[i] = 4, 0.25
		}
	}
	swing := func() {
		if err := r.SetWeights(a); err != nil {
			t.Fatal(err)
		}
		if err := r.SetWeights(b); err != nil {
			t.Fatal(err)
		}
	}
	swing()
	swing()
	if got := testing.AllocsPerRun(100, swing); got != 0 {
		t.Fatalf("%v allocations per pair of reweights, want 0", got)
	}
	if want := rebuiltPoints(r); !slices.Equal(r.points, want) {
		t.Fatal("the merged ring differs from a full rebuild")
	}
}

func BenchmarkRingLookup(b *testing.B) {
	r, _ := NewRing(64, DefaultVNodes)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Lookup(keys[i%len(keys)])
	}
}

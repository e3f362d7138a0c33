package shard

import (
	"slices"
	"sort"
	"testing"
)

// rebuiltPoints is the reference rebuild's merge must match: the point
// list built from nothing, every present shard's points hashed again and
// the whole list sorted with sort.Slice by (hash, shard, v).
func rebuiltPoints(r *Ring) []ringPoint {
	var points []ringPoint
	for s, w := range r.weights {
		if !r.present[s] {
			continue
		}
		n := int(w*float64(r.vnodes) + 0.5)
		if n < 1 {
			n = 1
		}
		for v := 0; v < n; v++ {
			points = append(points, ringPoint{hash: pointHash(s, v), shard: int32(s), v: int32(v)})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		a, b := points[i], points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.v < b.v
	})
	return points
}

// FuzzRing drives ring construction, membership churn, reweighting, and
// both lookup paths with arbitrary shapes, checking the invariants that
// matter to the plane: lookups always land on a present shard, bounded
// lookups terminate, a rebuilt ring keeps one point minimum per present
// shard so no member becomes unroutable, and an arbitrary interleaving
// of Remove/SetWeights never breaks any of that. After every step the
// merged point list must equal a full rebuild (rebuiltPoints).
func FuzzRing(f *testing.F) {
	f.Add(uint8(4), uint8(32), "hot", 1.25, uint8(1), uint16(0))
	f.Add(uint8(1), uint8(1), "", 0.0, uint8(0), uint16(0xffff))
	f.Add(uint8(64), uint8(255), "a-very-long-function-key/tenant-42", 4.0, uint8(200), uint16(0xa5a5))
	f.Add(uint8(8), uint8(127), "clamp", 1.25, uint8(3), uint16(0xffff))
	f.Fuzz(func(t *testing.T, n, vnodes uint8, key string, factor float64, wseed uint8, churn uint16) {
		shards := int(n)%64 + 1
		vn := int(vnodes)%DefaultVNodes + 1
		r, err := NewRing(shards, vn)
		if err != nil {
			t.Fatalf("NewRing(%d,%d): %v", shards, vn, err)
		}
		weights := make([]float64, shards)
		for i := range weights {
			// Arbitrary positive weights spanning the clamp range.
			weights[i] = 0.1 + float64((int(wseed)+i*7)%100)/10
		}
		if err := r.SetWeights(weights); err != nil {
			t.Fatalf("SetWeights: %v", err)
		}

		// Interleave membership churn with reweights, driven by the churn
		// bits: each step removes some shard, reweights every shard, or
		// swings every weight between the clamp ends. The bounded-load
		// invariant below must hold at every step.
		check := func(step int) {
			if want := rebuiltPoints(r); !slices.Equal(r.points, want) {
				t.Fatalf("step %d: ring holds %d points, a full rebuild %d, or they differ", step, len(r.points), len(want))
			}
			if r.Members() < 1 || r.Members() > shards {
				t.Fatalf("step %d: Members() = %d outside [1,%d]", step, r.Members(), shards)
			}
			if got := r.Lookup(key); got < 0 || got >= shards || !r.present[got] {
				t.Fatalf("step %d: Lookup(%q) = %d not a present shard", step, key, got)
			}
			loads := make([]int, shards)
			total := 0
			for i := range loads {
				loads[i] = (int(wseed) * (i + 1)) % 17
				total += loads[i]
			}
			got := r.LookupBounded(key, factor, total, func(s int) int { return loads[s] })
			if got < 0 || got >= shards || !r.present[got] {
				t.Fatalf("step %d: LookupBounded(%q) = %d not a present shard", step, key, got)
			}
		}
		setWeights := func(step int) {
			if err := r.SetWeights(weights); err != nil {
				t.Fatalf("step %d: SetWeights: %v", step, err)
			}
			check(step)
		}
		check(-1)
		for step := 0; step < 16; step++ {
			bits := int(churn) >> (step % 16)
			target := (int(wseed) + step*5) % shards
			switch bits % 4 {
			case 0:
				if err := r.Remove(target); err == nil {
					if r.present[target] {
						t.Fatalf("step %d: Remove(%d) succeeded but shard still present", step, target)
					}
				} else if r.present[target] && r.Members() > 1 {
					t.Fatalf("step %d: Remove(%d) of a present, non-last shard failed: %v", step, target, err)
				}
				check(step)
			case 1, 2:
				for i := range weights {
					if bits&4 == 0 {
						// Nudge every weight by under a quarter vnode: most
						// counts stay put, and where none moves the ring
						// keeps the list it has.
						weights[i] = r.Weight(i) + 0.25/float64(vn+1)
					} else {
						weights[i] = 0.1 + float64((int(wseed)+step+i*11)%100)/10
					}
				}
				setWeights(step)
			default:
				// Both clamp ends in one step each, 0.25 → 4 → 0.25 (and
				// the reverse for every other shard), past the clamps: the
				// merge grows a shard to 16× its points, shrinks another to
				// a sixteenth, and back, in the same rebuild.
				for _, lo := range []bool{true, false, true} {
					for i := range weights {
						if (i%2 == 0) == lo {
							weights[i] = 0.01
						} else {
							weights[i] = 100
						}
					}
					setWeights(step)
				}
			}
		}
	})
}

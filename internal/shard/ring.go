// Package shard is the horizontal-scaling tier of the platform: a
// consistent-hash load balancer (Ring) that spreads function keys across
// N independent orchestrator shards, a routing Plane that owns the
// submit/settle path across them, and a poolmanager-style capacity
// aggregator that rebalances ring weights and steals queued work from
// backlogged shards (see plane.go and capacity.go).
//
// One orchestrator owns every worker in the unsharded platform, which
// caps cluster throughput at what a single control plane can dispatch
// (~200k func/min at rack scale). Sharding splits the fleet into
// disjoint worker partitions — each with its own orchestrator, power
// manager, and telemetry — and routes invocations by hashing a caller
// key (usually the function name, optionally a tenant-qualified key), so
// shards share nothing on the hot path and the cluster's dispatch
// capacity scales with the shard count.
//
// Everything in this package is deterministic: the ring's point
// placement is a pure function of shard count, weights, and the vnode
// budget; routing draws no randomness; and the aggregator runs on the
// cluster clock (virtual in sim mode), so seeded sharded simulations are
// byte-identical at any experiment parallelism.
package shard

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// DefaultVNodes is the virtual-node budget per unit of shard weight.
// 128 vnodes per shard keeps the maximum key-share imbalance across
// shards in the low single-digit percent range while the ring stays
// small enough to rebuild on every weight change (a few thousand points
// at rack scale).
const DefaultVNodes = 128

// ringPoint is one virtual node on the hash circle: point v of a shard,
// at pointHash(shard, v). The list is ordered by (hash, shard, v).
type ringPoint struct {
	hash  uint64
	shard int32
	v     int32
}

// comparePoints is the ring's order. pointHash is a bijection of
// (shard, v), so two points never share a hash; the tie-break only keeps
// the order total without relying on that.
func comparePoints(a, b ringPoint) int {
	if c := cmp.Compare(a.hash, b.hash); c != 0 {
		return c
	}
	if c := cmp.Compare(a.shard, b.shard); c != 0 {
		return c
	}
	return cmp.Compare(a.v, b.v)
}

// Ring is a weighted consistent-hash ring with virtual nodes and
// dynamic membership. A key maps to the shard owning the first point
// clockwise of the key's hash; raising a shard's weight gives it more
// points (and so a proportionally larger share of the key space)
// without disturbing where other shards' points sit — reweighting or
// removing one shard only moves the keys that shard gained or lost (the ~1/N key-movement property, because point
// placement is a pure function of (shard, vnode), never of the rest of
// the membership). Ring is not concurrency-safe; the Plane guards it
// with its own lock.
type Ring struct {
	vnodes  int
	weights []float64
	present []bool
	members int
	counts  []int // points per shard in the current list; 0 when absent
	points  []ringPoint
	spare   []ringPoint // rebuild merges into it, then it swaps with points
	grown   []ringPoint // rebuild's scratch: the points it adds, sorted
	seen    []bool      // LookupBounded's scratch: shards its walk has visited
}

// NewRing builds a ring over n shards (ids 0..n-1), all present, at
// equal weight. vnodes is the per-unit-weight virtual-node budget (<=0
// selects DefaultVNodes).
func NewRing(n, vnodes int) (*Ring, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: ring needs at least one shard, got %d", n)
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes, weights: make([]float64, n), present: make([]bool, n), members: n, counts: make([]int, n), seen: make([]bool, n)}
	for i := range r.weights {
		r.weights[i] = 1
		r.present[i] = true
	}
	// Both merge buffers hold the most points the weight clamp allows
	// (every shard at 4), so no rebuild ever grows them; the first
	// rebuild adds every point at weight 1.
	most := n * 4 * vnodes
	r.points, r.spare = make([]ringPoint, 0, most), make([]ringPoint, 0, most)
	r.grown = make([]ringPoint, 0, n*vnodes)
	r.rebuild()
	return r, nil
}

// splitmix64 is the finalizer used everywhere this repository needs a
// fast, well-mixed deterministic hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashKey maps a routing key onto the hash circle (FNV-1a, then a
// splitmix64 finalizer to spread FNV's weak low bits).
func hashKey(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return splitmix64(h)
}

// pointHash places virtual node v of a shard. The placement depends only
// on (shard, v), never on the current weight vector, which is what makes
// reweighting minimally disruptive: shard i's first k points are the
// same no matter how many it has.
func pointHash(shard, v int) uint64 {
	return splitmix64(uint64(shard)<<32 | uint64(v))
}

// rebuild brings the sorted point list in line with the weight vector,
// skipping absent shards entirely (their keys fall through to the next
// present point clockwise — exactly the keys the removed shard owned,
// nothing else). A shard's points are always pointHash(s, 0..count-1),
// so a new list differs from the old one only at the ends of those runs:
// rebuild drops the points of a shrinking (or removed) shard whose v is
// past its new count, hashes and sorts only the points a growing shard
// adds, and merges the two sorted runs into the spare buffer. When no
// count moved — a reweight that rounds to the same vnodes everywhere —
// the list it has is kept.
func (r *Ring) rebuild() {
	changed := false
	r.grown = r.grown[:0]
	for s, w := range r.weights {
		n := 0
		if r.present[s] {
			n = int(w*float64(r.vnodes) + 0.5)
			if n < 1 {
				n = 1 // a present shard always owns at least one point
			}
		}
		for v := r.counts[s]; v < n; v++ {
			r.grown = append(r.grown, ringPoint{hash: pointHash(s, v), shard: int32(s), v: int32(v)})
		}
		if n != r.counts[s] {
			r.counts[s] = n
			changed = true
		}
	}
	if !changed {
		return
	}
	slices.SortFunc(r.grown, comparePoints)
	out, add := r.spare[:0], r.grown
	for _, p := range r.points {
		if int(p.v) >= r.counts[p.shard] {
			continue
		}
		for len(add) > 0 && comparePoints(add[0], p) < 0 {
			out = append(out, add[0])
			add = add[1:]
		}
		out = append(out, p)
	}
	r.points, r.spare = append(out, add...), r.points
}

// Members returns the number of shards currently present on the ring.
func (r *Ring) Members() int { return r.members }

// Weight returns a shard's current weight.
func (r *Ring) Weight(shard int) float64 { return r.weights[shard] }

// Remove takes a shard off the ring. Its points vanish and nothing else
// changes, so exactly the keys it owned (~1/N of the key space at equal
// weights) move — each to the next present shard clockwise. The last
// member cannot be removed: an empty ring routes nothing.
func (r *Ring) Remove(shard int) error {
	if shard < 0 || shard >= len(r.weights) {
		return fmt.Errorf("shard: Remove(%d) outside [0,%d)", shard, len(r.weights))
	}
	if !r.present[shard] {
		return fmt.Errorf("shard: Remove(%d): not on the ring", shard)
	}
	if r.members == 1 {
		return fmt.Errorf("shard: Remove(%d) would empty the ring", shard)
	}
	r.present[shard] = false
	r.members--
	r.rebuild()
	return nil
}

// SetWeights replaces the weight vector (one entry per shard, each
// clamped to [1/4, 4] so a capacity wobble can never starve or flood one
// shard) and rebuilds the ring. len(w) must equal Shards().
func (r *Ring) SetWeights(w []float64) error {
	if len(w) != len(r.weights) {
		return fmt.Errorf("shard: weight vector has %d entries for %d shards", len(w), len(r.weights))
	}
	for i, v := range w {
		if v != v {
			return fmt.Errorf("shard: weight[%d] is NaN", i)
		}
		if v < 0.25 {
			v = 0.25
		}
		if v > 4 {
			v = 4
		}
		r.weights[i] = v
	}
	r.rebuild()
	return nil
}

// Lookup maps a key to its owning shard: the first point clockwise of
// the key's hash.
func (r *Ring) Lookup(key string) int {
	return int(r.points[r.successor(hashKey(key))].shard)
}

// successor returns the index of the first point at or after h, wrapping
// at the top of the circle.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// LookupBounded is consistent hashing with bounded loads (the fnlb /
// Mirrokni et al. policy): starting from the key's home shard, it walks
// clockwise past shards whose current load exceeds factor × the mean
// load (plus a +1 slack so an idle ring never rejects), and returns the
// first shard under its bound. load reports a shard's current load (the
// Plane passes pending invocations); total is the sum over all shards.
// factor <= 1 disables the bound and behaves exactly like Lookup. The
// walk visits each distinct shard at most once and falls back to the
// home shard if every shard is somehow over its bound.
func (r *Ring) LookupBounded(key string, factor float64, total int, load func(shard int) int) int {
	home := r.successor(hashKey(key))
	if factor <= 1 {
		return int(r.points[home].shard)
	}
	n := r.members
	bound := factor*float64(total)/float64(n) + 1
	visited := 0
	seen := r.seen
	clear(seen)
	for i := 0; visited < n && i < len(r.points); i++ {
		s := int(r.points[(home+i)%len(r.points)].shard)
		if seen[s] {
			continue
		}
		seen[s] = true
		visited++
		if float64(load(s)) < bound {
			return s
		}
	}
	return int(r.points[home].shard)
}

package core

import "math/bits"

// loadIndex is the least-loaded policy's worker index. It files each
// attached slot under its level (class, load) — class 1 while the breaker
// has it ejected, load its queued-plus-running jobs — as one bit in the
// level's bitset over slot ranks (positions in Orchestrator.slots, which is
// registration order), with a summary bit per bitset word. A load change
// moves one bit; the pick, the lowest rank in the lowest non-empty level of
// the eligible class (of the ejected class once none is eligible), reads a
// summary word and a bitset word. That is assignableLocked's rule scanned
// in registration order, so the pick is exactly the scan's. Only that
// policy builds an index; the methods are no-ops on nil. An emptied
// level's set is freed for reuse, so the index holds a set of fleet/64
// words per level in use and a level table as deep as the deepest load.
type loadIndex struct {
	words  int      // bitset words per set: one bit per slot rank
	stride int      // words plus their summary words
	bits   []uint64 // set k is bits[k*stride:][:stride]
	size   []int32  // slots filed in set k
	free   []int32  // sets whose level emptied, reused first
	level  []int32  // level (levelOf) → set k+1; 0 while the level is empty
	min    [2]int32 // each class's lowest non-empty level, while count > 0
	max    int32    // the highest non-empty level of either class; 0 when empty
	count  [2]int   // slots filed in each class
}

// load is the slot's queued-plus-running job count.
func (s *workerSlot) load() int {
	n := s.qlen()
	if s.busy {
		n++
	}
	return n
}

// levelOf packs the level s belongs under as load<<1 | class.
func levelOf(s *workerSlot) int32 {
	lvl := int32(s.load()) << 1
	if s.eligPos < 0 {
		lvl |= 1
	}
	return lvl
}

// grow sizes every set for n slot ranks, once per registration batch.
func (ix *loadIndex) grow(n int) {
	words := (n + 63) / 64
	if ix == nil || words <= ix.words {
		return
	}
	stride := words + (words+63)/64
	grown := make([]uint64, len(ix.size)*stride)
	for k := range ix.size {
		old, set := ix.set(int32(k)), grown[k*stride:][:stride]
		copy(set, old[:ix.words])
		copy(set[words:], old[ix.words:])
	}
	ix.words, ix.stride, ix.bits = words, stride, grown
}

// set returns set k's bitset words followed by their summary words.
func (ix *loadIndex) set(k int32) []uint64 {
	return ix.bits[int(k)*ix.stride:][:ix.stride]
}

// mark sets or clears rank r's bit in set k, and its word's summary bit.
func (ix *loadIndex) mark(k int32, r int, on bool) {
	set := ix.set(k)
	w := r >> 6
	if on {
		set[w] |= 1 << (r & 63)
		set[ix.words+w>>6] |= 1 << (w & 63)
		return
	}
	if set[w] &^= 1 << (r & 63); set[w] == 0 {
		set[ix.words+w>>6] &^= 1 << (w & 63)
	}
}

// file sets rank r's bit under lvl, taking a set if the level has none.
func (ix *loadIndex) file(r int, lvl int32) {
	if n := int(lvl) + 1 - len(ix.level); n > 0 {
		ix.level = append(ix.level, make([]int32, n)...)
	}
	k := ix.level[lvl] - 1
	if k < 0 {
		if n := len(ix.free); n > 0 {
			k, ix.free = ix.free[n-1], ix.free[:n-1]
		} else {
			k = int32(len(ix.size))
			ix.bits = append(ix.bits, make([]uint64, ix.stride)...)
			ix.size = append(ix.size, 0)
		}
		ix.level[lvl] = k + 1
	}
	ix.mark(k, r, true)
	ix.size[k]++
	ix.max = max(ix.max, lvl)
	c := lvl & 1
	if ix.count[c] == 0 || lvl < ix.min[c] {
		ix.min[c] = lvl
	}
	ix.count[c]++
}

// unfile clears rank r's bit under lvl. An emptied level frees its set
// and, if it was its class's lowest or the highest, passes that on.
func (ix *loadIndex) unfile(r int, lvl int32) {
	c, k := lvl&1, ix.level[lvl]-1
	ix.mark(k, r, false)
	ix.count[c]--
	if ix.size[k]--; ix.size[k] > 0 {
		return
	}
	ix.level[lvl] = 0
	ix.free = append(ix.free, k)
	if ix.count[c] > 0 && lvl == ix.min[c] {
		for ix.level[ix.min[c]] == 0 {
			ix.min[c] += 2
		}
	}
	for ix.max > 0 && ix.level[ix.max] == 0 {
		ix.max--
	}
}

// add files a newly registered slot; remove unfiles a detached one.
func (ix *loadIndex) add(s *workerSlot) {
	if ix != nil {
		s.lvl = levelOf(s)
		ix.file(s.rank, s.lvl)
	}
}

func (ix *loadIndex) remove(s *workerSlot) {
	if ix != nil && s.lvl >= 0 {
		ix.unfile(s.rank, s.lvl)
		s.lvl = -1
	}
}

// refile moves s to its current level, skipping an unfiled slot. The new
// level is filed first, so the old one's emptying scans no further up.
func (ix *loadIndex) refile(s *workerSlot) {
	if ix == nil || s.lvl < 0 {
		return
	}
	if lvl := levelOf(s); lvl != s.lvl {
		ix.file(s.rank, lvl)
		ix.unfile(s.rank, s.lvl)
		s.lvl = lvl
	}
}

// rerank moves s's bit to rank r, as detachLocked closes a rank gap.
func (ix *loadIndex) rerank(s *workerSlot, r int) {
	if ix != nil && s.lvl >= 0 {
		k := ix.level[s.lvl] - 1
		ix.mark(k, s.rank, false)
		ix.mark(k, r, true)
	}
}

// first returns the lowest rank filed in set k, which is never empty.
func (ix *loadIndex) first(k int32) int {
	set := ix.set(k)
	for i, sum := range set[ix.words:] {
		if sum != 0 {
			w := i<<6 | bits.TrailingZeros64(sum)
			return w<<6 | bits.TrailingZeros64(set[w])
		}
	}
	panic("core: least-loaded level filed with no slot")
}

// least returns the rank of the policy's pick. An orchestrator always has
// an attached worker, so the index is never empty.
func (ix *loadIndex) least() int {
	c := 0
	if ix.count[0] == 0 {
		c = 1
	}
	return ix.first(ix.level[ix.min[c]] - 1)
}

// leastBut is least with s unfiled for the pick (a retry's, away from the
// board it failed on); -1 when s is the only slot filed.
func (ix *loadIndex) leastBut(s *workerSlot) int {
	if s.lvl >= 0 {
		ix.unfile(s.rank, s.lvl)
		defer ix.file(s.rank, s.lvl)
	}
	if ix.count[0]+ix.count[1] == 0 {
		return -1
	}
	return ix.least()
}

// most returns the rank of the take's victim: the lowest rank at the
// highest load, in either class, if that load is at least 2 (a job queued
// behind a running one); -1 otherwise.
func (ix *loadIndex) most() int {
	r, top := -1, ix.max&^1
	for lvl := top; top >= 2<<1 && lvl <= top|1 && int(lvl) < len(ix.level); lvl++ {
		if k := ix.level[lvl] - 1; k >= 0 {
			if f := ix.first(k); r < 0 || f < r {
				r = f
			}
		}
	}
	return r
}

// loadChangedLocked is the one hook every change to a slot's load passes:
// each queue mutation (qpush, qpop, qtake, qpoptail) and each flip of the
// busy flag is followed by a call. It republishes the queue-depth gauge,
// keeps the orchestrator's queued total, and refiles the slot in the load
// index. Caller holds o.mu.
func (o *Orchestrator) loadChangedLocked(s *workerSlot) {
	if q := int32(s.qlen()); q != s.queued {
		o.queued.Add(int64(q - s.queued))
		s.queued = q
		s.m.queueDepth.Set(float64(q))
	}
	o.load.refile(s)
}

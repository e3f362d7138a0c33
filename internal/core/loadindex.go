package core

// loadIndex is the least-loaded policy's worker index: a binary min-heap
// over every attached slot, each slot carrying its own position (loadPos)
// the way eligPos and parolePos do, so the policy's pick is the root and a
// slot whose key changed is repaired in O(log W) instead of the pick
// rescanning the rack.
//
// The key is (breaker-ejected, load, registration idx). Ejected slots sort
// after every eligible one, which is assignableLocked's rule without a
// second structure: the root is the least-loaded eligible worker while any
// is eligible, and the least-loaded worker outright once every breaker is
// open. idx is unique, so the order is total and the root is exactly the
// worker a scan in registration order would have chosen.
//
// The sifts are written out rather than taken from container/heap (which
// paroleHeap, off the hot path, uses): they run several times per job and
// the interface dispatch per comparison would be most of their cost.
type loadIndex []*workerSlot

// load is the slot's queued-plus-running job count.
func (s *workerSlot) load() int {
	n := s.qlen()
	if s.busy {
		n++
	}
	return n
}

// loadLess orders two slots by the index key.
func loadLess(a, b *workerSlot) bool {
	if ae, be := a.eligPos < 0, b.eligPos < 0; ae != be {
		return be
	}
	if la, lb := a.load(), b.load(); la != lb {
		return la < lb
	}
	return a.idx < b.idx
}

func (h loadIndex) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].loadPos = i
	h[j].loadPos = j
}

func (h loadIndex) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !loadLess(h[i], h[parent]) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts h[i] towards the leaves and reports whether it moved.
func (h loadIndex) down(i int) bool {
	start := i
	for {
		least := 2*i + 1
		if least >= len(h) {
			break
		}
		if r := least + 1; r < len(h) && loadLess(h[r], h[least]) {
			least = r
		}
		if !loadLess(h[least], h[i]) {
			break
		}
		h.swap(i, least)
		i = least
	}
	return i > start
}

// fix restores heap order after s's key changed. A detached slot is in no
// index and is skipped.
func (h loadIndex) fix(s *workerSlot) {
	if s.loadPos >= 0 && !h.down(s.loadPos) {
		h.up(s.loadPos)
	}
}

func (h *loadIndex) push(s *workerSlot) {
	s.loadPos = len(*h)
	*h = append(*h, s)
	h.up(s.loadPos)
}

func (h *loadIndex) remove(s *workerSlot) {
	i, last := s.loadPos, len(*h)-1
	h.swap(i, last)
	(*h)[last] = nil
	*h = (*h)[:last]
	s.loadPos = -1
	if i < last {
		h.fix((*h)[i])
	}
}

// loadChangedLocked is the one hook every change to a slot's load passes:
// each queue mutation (qpush, qpop, qtake, qpoptail) and each flip of the
// busy flag is followed by a call. It republishes the queue-depth gauge,
// keeps the orchestrator's queued total, and repairs the slot's place in
// the load index. Caller holds o.mu.
func (o *Orchestrator) loadChangedLocked(s *workerSlot) {
	if q := s.qlen(); q != s.queued {
		o.queued.Add(int64(q - s.queued))
		s.queued = q
		s.m.queueDepth.Set(float64(q))
	}
	o.load.fix(s)
}

package tsdb

import "time"

// pointRing is a bounded ring of raw points, oldest overwritten first.
// Points arrive in non-decreasing clock order (scrapes only move
// forward), so windowed reads are contiguous runs. The buffer starts at
// rawChunk points and doubles up to cap, so a series that lives for a
// few scrapes never pays for a full ring.
type pointRing struct {
	buf   []Point
	cap   int
	next  int   // write cursor into buf once full
	total int64 // points ever pushed
}

// rawChunk is a raw ring's first allocation, in points: a sixteenth of
// the default bound, so 27k series scraped a hundred times hold a fifth
// of what full rings would. Not zero: growing from nothing puts every
// series' first doublings into the first few scrapes of a live store.
const rawChunk = 64

// newPointRing returns an empty ring bounded at capacity points.
func newPointRing(capacity int) pointRing {
	first := rawChunk
	if first > capacity {
		first = capacity
	}
	return pointRing{buf: make([]Point, 0, first), cap: capacity}
}

// push appends a point, overwriting the oldest when full.
func (r *pointRing) push(p Point) {
	if len(r.buf) < r.cap {
		if len(r.buf) == cap(r.buf) {
			grown := 2 * cap(r.buf)
			if grown > r.cap {
				grown = r.cap
			}
			r.buf = append(make([]Point, 0, grown), r.buf...)
		}
		r.buf = append(r.buf, p)
	} else {
		r.buf[r.next] = p
		r.next = (r.next + 1) % r.cap
	}
	r.total++
}

// len returns how many points are retained.
func (r *pointRing) len() int { return len(r.buf) }

// at returns the i-th retained point, oldest first.
func (r *pointRing) at(i int) Point {
	if len(r.buf) < r.cap {
		return r.buf[i]
	}
	return r.buf[(r.next+i)%r.cap]
}

// newest returns the latest retained point; the ring must not be empty.
func (r *pointRing) newest() Point { return r.at(len(r.buf) - 1) }

// oldest returns the earliest retained point's offset (0, false when
// empty).
func (r *pointRing) oldest() (time.Duration, bool) {
	if len(r.buf) == 0 {
		return 0, false
	}
	return r.at(0).At, true
}

// covers reports whether the ring can answer a window starting at from:
// either nothing has ever been evicted (the ring holds the series'
// whole history, so any from is covered) or the oldest retained point
// is at or before from.
func (r *pointRing) covers(from time.Duration) bool {
	if len(r.buf) == 0 {
		return false
	}
	if r.total <= int64(r.cap) {
		return true
	}
	return r.at(0).At <= from
}

// ascend calls fn on every retained point with At >= from, oldest
// first, stopping early when fn returns false.
func (r *pointRing) ascend(from time.Duration, fn func(Point) bool) {
	n := r.len()
	// Binary-search the first point >= from (points are time-ordered).
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if r.at(mid).At < from {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < n; i++ {
		if !fn(r.at(i)) {
			return
		}
	}
}

// bucketRing downsamples pushed points into fixed-resolution aggregate
// buckets, keeping the newest cap buckets.
type bucketRing struct {
	res  time.Duration
	cap  int
	buf  []Bucket
	next int // write cursor once full
}

// push folds one raw point into its resolution bucket, opening a new
// bucket (and evicting the oldest) when the point crosses a boundary.
func (r *bucketRing) push(at time.Duration, v float64) {
	start := at - (at % r.res)
	if n := r.len(); n > 0 {
		last := r.idx(n - 1)
		if r.buf[last].Start == start {
			b := &r.buf[last]
			b.Count++
			b.Sum += v
			if v < b.Min {
				b.Min = v
			}
			if v > b.Max {
				b.Max = v
			}
			b.Last, b.LastAt = v, at
			return
		}
	}
	nb := Bucket{Start: start, Count: 1, Sum: v, Min: v, Max: v,
		First: v, Last: v, FirstAt: at, LastAt: at}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, nb)
	} else {
		r.buf[r.next] = nb
		r.next = (r.next + 1) % r.cap
	}
}

// len returns how many buckets are retained.
func (r *bucketRing) len() int { return len(r.buf) }

// idx maps the i-th retained bucket (oldest first) to a buf index.
func (r *bucketRing) idx(i int) int {
	if len(r.buf) < r.cap {
		return i
	}
	return (r.next + i) % r.cap
}

// at returns the i-th retained bucket, oldest first.
func (r *bucketRing) at(i int) Bucket { return r.buf[r.idx(i)] }

// ascend calls fn on every retained bucket overlapping [from, ∞),
// oldest first, stopping early when fn returns false.
func (r *bucketRing) ascend(from time.Duration, fn func(Bucket) bool) {
	n := r.len()
	for i := 0; i < n; i++ {
		b := r.at(i)
		if b.Start+r.res <= from {
			continue
		}
		if !fn(b) {
			return
		}
	}
}

// windowStats are the aggregates a query window resolves to, assembled
// from whichever storage tier still covers the window's start.
type windowStats struct {
	count               int
	sum, min, max       float64
	first, last         float64
	firstAt, lastAt     time.Duration
	haveFirst, haveLast bool
}

// add folds one observation into the stats.
func (w *windowStats) add(at time.Duration, v float64) {
	if w.count == 0 {
		w.min, w.max = v, v
	} else {
		if v < w.min {
			w.min = v
		}
		if v > w.max {
			w.max = v
		}
	}
	w.count++
	w.sum += v
	if !w.haveFirst || at < w.firstAt {
		w.first, w.firstAt, w.haveFirst = v, at, true
	}
	if !w.haveLast || at >= w.lastAt {
		w.last, w.lastAt, w.haveLast = v, at, true
	}
}

// addBucket folds one downsampled bucket into the stats.
func (w *windowStats) addBucket(b Bucket) {
	if w.count == 0 {
		w.min, w.max = b.Min, b.Max
	} else {
		if b.Min < w.min {
			w.min = b.Min
		}
		if b.Max > w.max {
			w.max = b.Max
		}
	}
	w.count += b.Count
	w.sum += b.Sum
	if !w.haveFirst || b.FirstAt < w.firstAt {
		w.first, w.firstAt, w.haveFirst = b.First, b.FirstAt, true
	}
	if !w.haveLast || b.LastAt >= w.lastAt {
		w.last, w.lastAt, w.haveLast = b.Last, b.LastAt, true
	}
}

// window resolves [from, ∞) over the series, preferring raw points and
// falling back to tier 1 then tier 2 when the raw ring no longer
// reaches back to from. The chosen tier is used alone — mixing tiers
// would double-count the overlap.
func (sr *series) window(from time.Duration) windowStats {
	var w windowStats
	if sr.raw.covers(from) {
		sr.raw.ascend(from, func(p Point) bool { w.add(p.At, p.Value); return true })
		return w
	}
	pick := &sr.t1
	if n := sr.t1.len(); n > 0 && sr.t1.at(0).Start > from && sr.t2.len() > 0 {
		pick = &sr.t2
	}
	if pick.len() == 0 {
		// Nothing downsampled yet (short-lived series): use raw anyway.
		sr.raw.ascend(from, func(p Point) bool { w.add(p.At, p.Value); return true })
		return w
	}
	pick.ascend(from, func(b Bucket) bool { w.addBucket(b); return true })
	return w
}

// points returns the series' retained samples in [from, ∞) as plot
// points, downsampling from the finest tier that still covers from.
func (sr *series) points(from time.Duration) []Point {
	var out []Point
	if sr.raw.covers(from) {
		sr.raw.ascend(from, func(p Point) bool { out = append(out, p); return true })
		return out
	}
	pick := &sr.t1
	if sr.t1.len() > 0 && sr.t1.at(0).Start > from && sr.t2.len() > 0 {
		pick = &sr.t2
	}
	if pick.len() == 0 {
		sr.raw.ascend(from, func(p Point) bool { out = append(out, p); return true })
		return out
	}
	pick.ascend(from, func(b Bucket) bool {
		out = append(out, Point{At: b.LastAt, Value: b.Last})
		return true
	})
	return out
}

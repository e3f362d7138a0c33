package tsdb

import (
	"math"
	"time"
)

// clock is the store-wide scrape clock: the offsets of the most recent
// scrapes, addressed by scrape number. Series hold scrape numbers and
// read their samples' stamps here, so a sample that repeats the one
// before it costs a series nothing but a count.
type clock struct {
	at   []time.Duration // at[i] is the offset of scrape base+i
	base int64           // scrape number of at[0]
	keep int             // samples a series retains (Config.RawCapacity)
}

// tick records the next scrape's offset, which must be after the last.
// A series gets a sample at every scrape from its first on, so what it
// retains lies within the newest keep+1 scrapes (the one under way may
// not have reached it yet); the clock holds between one and two times
// that many, dropping the older half when full.
func (c *clock) tick(now time.Duration) {
	if len(c.at) == 2*(c.keep+1) {
		c.at = c.at[:copy(c.at, c.at[c.keep+1:])]
		c.base += int64(c.keep + 1)
	}
	c.at = append(c.at, now)
}

// scrapes returns how many scrapes the clock has recorded.
func (c *clock) scrapes() int64 { return c.base + int64(len(c.at)) }

// last returns the most recent scrape's offset (0 before the first).
func (c *clock) last() time.Duration {
	if len(c.at) == 0 {
		return 0
	}
	return c.at[len(c.at)-1]
}

// time returns the offset of a scrape the clock still holds.
func (c *clock) time(scrape int64) time.Duration { return c.at[scrape-c.base] }

// search returns the first held scrape at or after from (scrapes() when
// every scrape is before it).
func (c *clock) search(from time.Duration) int64 {
	lo, hi := 0, len(c.at)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.at[mid] < from {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return c.base + int64(lo)
}

// run is n consecutive samples of one value, one per scrape from scrape
// first on. Values are equal when their bits are, so -0 and every NaN
// payload come back as pushed.
type run struct {
	value float64
	first int64
	n     int64
}

// runChunk is a run ring's first allocation, in runs.
const runChunk = 4

// runRing is a queue of runs, oldest first, that doubles from runChunk
// up to the bound its pusher passes.
type runRing struct {
	buf  []run
	head int // index of the oldest run
	n    int
}

// at returns the i-th run, oldest first.
func (q *runRing) at(i int) *run { return &q.buf[(q.head+i)%len(q.buf)] }

// push appends a run; the caller keeps n below bound.
func (q *runRing) push(r run, bound int) {
	if q.n == len(q.buf) {
		grown := 2 * len(q.buf)
		if grown == 0 {
			grown = runChunk
		}
		if grown > bound {
			grown = bound
		}
		buf := make([]run, grown)
		for i := 0; i < q.n; i++ {
			buf[i] = *q.at(i)
		}
		q.buf, q.head = buf, 0
	}
	q.n++
	*q.at(q.n - 1) = r
}

// pop drops the oldest run.
func (q *runRing) pop() {
	q.head = (q.head + 1) % len(q.buf)
	q.n--
}

// runs returns how many runs the series retains.
func (sr *series) runs() int {
	if sr.open.n == 0 {
		return 0
	}
	return sr.closed.n + 1
}

// runAt returns the j-th retained run, oldest first.
func (sr *series) runAt(j int) *run {
	if j < sr.closed.n {
		return sr.closed.at(j)
	}
	return &sr.open
}

// push appends one sample stamped with the scrape under way. A value
// whose bits repeat the previous scrape's extends the open run and
// touches nothing else; any other closes it and opens the next. Beyond
// the clock's keep samples the oldest one goes.
func (sr *series) push(value float64) {
	scrape := sr.clk.scrapes() - 1
	if o := &sr.open; o.n > 0 && scrape == o.first+o.n && math.Float64bits(value) == math.Float64bits(o.value) {
		o.n++
	} else {
		if o.n > 0 {
			sr.closed.push(*o, sr.clk.keep)
		}
		*o = run{value: value, first: scrape, n: 1}
	}
	sr.total++
	if sr.total-sr.evicted > int64(sr.clk.keep) {
		sr.evict()
	}
}

// evict drops the oldest retained sample, folding it into the tiers
// first unless a read already has: the tiers are the only record of
// what the runs no longer hold.
func (sr *series) evict() {
	r := sr.runAt(0)
	if sr.folded == sr.evicted {
		sr.fold(sr.clk.time(r.first), r.value)
	}
	r.first++
	r.n--
	if r.n == 0 {
		sr.closed.pop() // never the open run: it holds the sample just pushed
		sr.popped++
	}
	sr.evicted++
}

// fold adds the oldest unfolded sample to both downsample tiers.
func (sr *series) fold(at time.Duration, value float64) {
	sr.t1.push(at, value)
	sr.t2.push(at, value)
	sr.folded++
}

// sync folds every sample the tiers have not seen, in push order, which
// leaves them exactly as a fold at every push would have: a tier read
// calls it first.
func (sr *series) sync() {
	skip := sr.folded - sr.evicted
	for j, n := 0, sr.runs(); j < n; j++ {
		r := sr.runAt(j)
		for i := skip; i < r.n; i++ {
			sr.fold(sr.clk.time(r.first+i), r.value)
		}
		if skip -= r.n; skip < 0 {
			skip = 0
		}
	}
}

// covers reports whether the runs can answer a window starting at from:
// either nothing has ever been evicted (they hold the series' whole
// history, so any from is covered) or the oldest retained sample is at
// or before from.
func (sr *series) covers(from time.Duration) bool {
	if sr.open.n == 0 {
		return false
	}
	if sr.evicted == 0 {
		return true
	}
	return sr.clk.time(sr.runAt(0).first) <= from
}

// seek returns the first run holding a sample with At >= from (runs()
// when none does) and that sample's scrape number.
func (sr *series) seek(from time.Duration) (j int, start int64) {
	start = sr.clk.search(from)
	// Binary-search the first run that reaches scrape start (runs are
	// time-ordered); only that one can begin before it.
	lo, hi := 0, sr.runs()
	for lo < hi {
		mid := (lo + hi) / 2
		if r := sr.runAt(mid); r.first+r.n <= start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, start
}

// runFrom returns the j-th retained run without its samples before
// scrape start.
func (sr *series) runFrom(j int, start int64) run {
	r := *sr.runAt(j)
	if d := start - r.first; d > 0 {
		r.first, r.n = start, r.n-d
	}
	return r
}

// ascend calls fn on every retained sample with At >= from, oldest
// first, stopping early when fn returns false. This is where runs become
// samples again.
func (sr *series) ascend(from time.Duration, fn func(Point) bool) {
	j, start := sr.seek(from)
	for n := sr.runs(); j < n; j++ {
		r := sr.runFrom(j, start)
		for i := int64(0); i < r.n; i++ {
			if !fn(Point{At: sr.clk.time(r.first + i), Value: r.value}) {
				return
			}
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

// addRun folds n samples of one value, the first at firstAt and the last
// at lastAt, both after everything folded so far — to the bit what n
// calls of add leave, the sum included.
func (w *windowStats) addRun(firstAt, lastAt time.Duration, v float64, n int64) {
	w.add(firstAt, v)
	for i := int64(1); i < n; i++ {
		w.sum += v
	}
	w.count += int(n - 1)
	w.last, w.lastAt = v, lastAt
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

// tier returns the finer tier that still reaches back to from, brought
// up to date: what answers a window the runs no longer cover.
func (sr *series) tier(from time.Duration) *bucketRing {
	sr.sync()
	if sr.t1.len() > 0 && sr.t1.at(0).Start > from && sr.t2.len() > 0 {
		return &sr.t2
	}
	return &sr.t1
}

// window resolves [from, ∞) over the series, preferring raw samples and
// falling back to tier 1 then tier 2 when the runs no longer reach back
// to from. The chosen tier is used alone — mixing tiers would
// double-count the overlap.
func (sr *series) window(from time.Duration) windowStats {
	if !sr.covers(from) {
		return sr.tierWindow(from)
	}
	var w windowStats
	j, start := sr.seek(from)
	for n := sr.runs(); j < n; j++ {
		r := sr.runFrom(j, start)
		w.addRun(sr.clk.time(r.first), sr.clk.time(r.first+r.n-1), r.value, r.n)
	}
	return w
}

// tierWindow is window answered from the tier that reaches back to from.
func (sr *series) tierWindow(from time.Duration) windowStats {
	var w windowStats
	sr.tier(from).ascend(from, func(b Bucket) bool { w.addBucket(b); return true })
	return w
}

// increase is increase(sr.window(from)) — what a query reads of a
// counter — without visiting every sample: from the runs it needs only
// the window's first value, its last (the open run's) and whether it
// holds two samples, which seek finds in O(log runs).
func (sr *series) increase(from time.Duration) float64 {
	if !sr.covers(from) {
		return increase(sr.tierWindow(from))
	}
	return sr.growthFrom(sr.seek(from))
}

// increaseAt is increase(from) for an SLO window whose first scrape,
// start, the caller found: it walks the cursor *cur — an absolute run
// number, popped plus index, so it outlives pushes and evictions —
// forward to the first run reaching start, stopping at the open run. A
// window's start and the runs' ends only move forward, so a passed run
// never reaches a later start.
func (sr *series) increaseAt(from time.Duration, start int64, cur *int64) float64 {
	if !sr.covers(from) {
		return increase(sr.tierWindow(from))
	}
	j, n := int(*cur-sr.popped), sr.runs()
	if j < 0 {
		j = 0 // the runs it pointed into have been evicted
	}
	for ; j < n-1; j++ {
		if r := sr.runAt(j); r.first+r.n > start {
			break
		}
	}
	*cur = sr.popped + int64(j)
	return sr.growthFrom(j, start)
}

// growthFrom is the increase over the retained samples from scrape start
// on, given j, the first run reaching it (runs() when none does).
func (sr *series) growthFrom(j int, start int64) float64 {
	n := sr.runs()
	if j == n {
		return 0
	}
	first := sr.runFrom(j, start)
	if j == n-1 && first.n < 2 {
		return 0
	}
	return growth(first.value, sr.open.value)
}

// points returns the series' retained samples in [from, ∞) as plot
// points, downsampling from the finest tier that still covers from.
func (sr *series) points(from time.Duration) []Point {
	var out []Point
	if sr.covers(from) {
		sr.ascend(from, func(p Point) bool { out = append(out, p); return true })
		return out
	}
	sr.tier(from).ascend(from, func(b Bucket) bool {
		out = append(out, Point{At: b.LastAt, Value: b.Last})
		return true
	})
	return out
}

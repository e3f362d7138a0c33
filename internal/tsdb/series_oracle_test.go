package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// The reference model: a series as it was stored before runs — one Point
// per sample in a bounded ring, folded into both tiers at every push. It
// shares no storage code with the series it checks.

// pointRing is a bounded ring of raw points, oldest overwritten first.
// Points arrive in non-decreasing clock order (scrapes only move
// forward), so windowed reads are contiguous runs. The buffer starts at
// rawChunk points and doubles up to cap.
type pointRing struct {
	buf   []Point
	cap   int
	next  int   // write cursor into buf once full
	total int64 // points ever pushed
}

// rawChunk is a raw ring's first allocation, in points.
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

// covers reports whether the ring can answer a window starting at from:
// either nothing has ever been evicted or the oldest retained point is
// at or before from.
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

// refTier is a downsample tier kept the plain way: every bucket ever
// opened, of which the newest cap are retained.
type refTier struct {
	res time.Duration
	cap int
	all []Bucket
}

// push folds one point into its resolution bucket.
func (r *refTier) push(at time.Duration, v float64) {
	start := at - (at % r.res)
	if n := len(r.all); n > 0 && r.all[n-1].Start == start {
		b := &r.all[n-1]
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
	r.all = append(r.all, Bucket{Start: start, Count: 1, Sum: v, Min: v, Max: v,
		First: v, Last: v, FirstAt: at, LastAt: at})
}

// kept returns the retained buckets, oldest first.
func (r *refTier) kept() []Bucket {
	if len(r.all) > r.cap {
		return r.all[len(r.all)-r.cap:]
	}
	return r.all
}

// ascend calls fn on every retained bucket overlapping [from, ∞).
func (r *refTier) ascend(from time.Duration, fn func(Bucket)) {
	for _, b := range r.kept() {
		if b.Start+r.res > from {
			fn(b)
		}
	}
}

// refSeries is the per-sample series: every push writes all three.
type refSeries struct {
	raw    pointRing
	t1, t2 refTier
}

func (sr *refSeries) push(now time.Duration, value float64) {
	sr.raw.push(Point{At: now, Value: value})
	sr.t1.push(now, value)
	sr.t2.push(now, value)
}

// pick chooses the tier a window the raw ring does not cover reads (nil:
// nothing downsampled, read raw anyway).
func (sr *refSeries) pick(from time.Duration) *refTier {
	pick := &sr.t1
	if k := sr.t1.kept(); len(k) > 0 && k[0].Start > from && len(sr.t2.kept()) > 0 {
		pick = &sr.t2
	}
	if len(pick.kept()) == 0 {
		return nil
	}
	return pick
}

func (sr *refSeries) window(from time.Duration) windowStats {
	var w windowStats
	pick := sr.pick(from)
	if sr.raw.covers(from) || pick == nil {
		sr.raw.ascend(from, func(p Point) bool { w.add(p.At, p.Value); return true })
		return w
	}
	pick.ascend(from, func(b Bucket) { w.addBucket(b) })
	return w
}

func (sr *refSeries) points(from time.Duration) []Point {
	var out []Point
	pick := sr.pick(from)
	if sr.raw.covers(from) || pick == nil {
		sr.raw.ascend(from, func(p Point) bool { out = append(out, p); return true })
		return out
	}
	pick.ascend(from, func(b Bucket) { out = append(out, Point{At: b.LastAt, Value: b.Last}) })
	return out
}

// clone copies the series' storage, so reads — which fold pending samples
// into the tiers — can be checked without disturbing how lazy the series
// under test is.
func (sr *series) clone() *series {
	c := *sr
	c.closed.buf = append([]run(nil), sr.closed.buf...)
	c.t1.buf = append([]Bucket(nil), sr.t1.buf...)
	c.t2.buf = append([]Bucket(nil), sr.t2.buf...)
	return &c
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].At != b[i].At || !sameFloat(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

func sameStats(a, b windowStats) bool {
	return a.count == b.count && sameFloat(a.sum, b.sum) && sameFloat(a.min, b.min) && sameFloat(a.max, b.max) &&
		sameFloat(a.first, b.first) && sameFloat(a.last, b.last) && a.firstAt == b.firstAt && a.lastAt == b.lastAt &&
		a.haveFirst == b.haveFirst && a.haveLast == b.haveLast
}

func sameBucket(a, b Bucket) bool {
	return a.Start == b.Start && a.Count == b.Count && sameFloat(a.Sum, b.Sum) && sameFloat(a.Min, b.Min) &&
		sameFloat(a.Max, b.Max) && sameFloat(a.First, b.First) && sameFloat(a.Last, b.Last) &&
		a.FirstAt == b.FirstAt && a.LastAt == b.LastAt
}

// seriesOp is one step of a stream: repeat scrapes, advance apart, each
// pushing value — and, when twice is set, a second source's sample (other)
// at the same instant. read makes a tier read hit the series under test
// itself after each scrape, folding whatever is pending at that point.
type seriesOp struct {
	value, other float64
	repeat       int
	advance      time.Duration
	twice, read  bool
}

// oracleShape sizes a run: the sample and bucket capacities, and how many
// scrapes the store has made before the series is first seen.
type oracleShape struct{ raw, tier, late int }

const (
	oracleUnit  = time.Second
	oracleTier1 = 2 * oracleUnit
	oracleTier2 = 5 * oracleUnit
)

// runSeriesOracle plays ops into a run-length series and the reference
// model and compares every read after every push.
func runSeriesOracle(t testing.TB, shape oracleShape, ops []seriesOp) {
	t.Helper()
	clk := clock{keep: shape.raw}
	now := time.Duration(0)
	for i := 0; i < shape.late; i++ {
		now += oracleUnit
		clk.tick(now)
	}
	sr := &series{
		clk: &clk,
		t1:  bucketRing{res: oracleTier1, cap: shape.tier},
		t2:  bucketRing{res: oracleTier2, cap: shape.tier},
	}
	ref := &refSeries{
		raw: newPointRing(shape.raw),
		t1:  refTier{res: oracleTier1, cap: shape.tier},
		t2:  refTier{res: oracleTier2, cap: shape.tier},
	}
	pushes := 0
	push := func(v float64) {
		sr.push(v)
		ref.push(now, v)
		pushes++
		compareSeries(t, fmt.Sprintf("shape %+v push %d (%v at %v)", shape, pushes, v, now), sr.clone(), ref)
	}
	for _, op := range ops {
		for i := 0; i < op.repeat; i++ {
			now += op.advance
			clk.tick(now)
			push(op.value)
			if op.twice {
				push(op.other)
			}
			if op.read {
				if got, want := sr.window(-1), ref.window(-1); !sameStats(got, want) {
					t.Fatalf("shape %+v after %d pushes: live window(-1) = %+v, want %+v", shape, pushes, got, want)
				}
			}
		}
	}
}

// compareSeries holds every read of sr to the reference's answer. sr is
// a clone: the reads fold its pending samples.
func compareSeries(t testing.TB, where string, sr *series, ref *refSeries) {
	t.Helper()
	if got, want := int(sr.total-sr.evicted), ref.raw.len(); got != want {
		t.Fatalf("%s: %d samples retained, want %d", where, got, want)
	}
	newest, oldest := ref.raw.newest(), ref.raw.at(0)
	if o := sr.open; !sameFloat(o.value, newest.Value) || sr.clk.time(o.first+o.n-1) != newest.At {
		t.Fatalf("%s: newest = %v at %v, want %+v", where, o.value, sr.clk.time(o.first+o.n-1), newest)
	}
	if r := sr.runAt(0); !sameFloat(r.value, oldest.Value) || sr.clk.time(r.first) != oldest.At {
		t.Fatalf("%s: oldest = %v at %v, want %+v", where, r.value, sr.clk.time(r.first), oldest)
	}
	// Every instant a window could start at: before everything, each
	// retained sample and the gap after it, each tier bucket's edges.
	froms := []time.Duration{-1, 0, newest.At + 1}
	for i := 0; i < ref.raw.len(); i++ {
		froms = append(froms, ref.raw.at(i).At, ref.raw.at(i).At+1)
	}
	for _, tier := range []*refTier{&ref.t1, &ref.t2} {
		for _, b := range tier.kept() {
			froms = append(froms, b.Start-1, b.Start, b.Start+tier.res)
		}
	}
	for _, from := range froms {
		if got, want := sr.covers(from), ref.raw.covers(from); got != want {
			t.Fatalf("%s: covers(%v) = %v, want %v", where, from, got, want)
		}
		if got, want := sr.window(from), ref.window(from); !sameStats(got, want) {
			t.Fatalf("%s: window(%v) = %+v, want %+v", where, from, got, want)
		}
		if got, want := sr.increase(from), increase(ref.window(from)); !sameFloat(got, want) {
			t.Fatalf("%s: increase(%v) = %v, want %v", where, from, got, want)
		}
		if got, want := sr.points(from), ref.points(from); !samePoints(got, want) {
			t.Fatalf("%s: points(%v) = %v, want %v", where, from, got, want)
		}
		var got, want []Point
		sr.ascend(from, func(p Point) bool { got = append(got, p); return true })
		ref.raw.ascend(from, func(p Point) bool { want = append(want, p); return true })
		if !samePoints(got, want) {
			t.Fatalf("%s: raw samples from %v = %v, want %v", where, from, got, want)
		}
	}
	sr.sync()
	for i, tier := range []*bucketRing{&sr.t1, &sr.t2} {
		want := []*refTier{&ref.t1, &ref.t2}[i].kept()
		if tier.len() != len(want) {
			t.Fatalf("%s: tier %d holds %d buckets, want %d", where, i+1, tier.len(), len(want))
		}
		for j, b := range want {
			if !sameBucket(tier.at(j), b) {
				t.Fatalf("%s: tier %d bucket %d = %+v, want %+v", where, i+1, j, tier.at(j), b)
			}
		}
	}
}

// oracleValues is what a stream draws from: both zeros, values whose
// repeated sum is not a product (0.1), a value that absorbs small ones,
// infinities, and two NaNs that differ only in payload.
var oracleValues = []float64{
	0, math.Copysign(0, -1), 1, 2, 0.1, 0.2, 0.3, 1e16, -1, 7.25,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000001),
}

// decodeSeriesOps turns fuzz bytes into a shape and a stream: three
// header bytes, then three bytes per op (value, repeat, flags).
func decodeSeriesOps(data []byte) (oracleShape, []seriesOp) {
	if len(data) < 3 {
		return oracleShape{raw: 3, tier: 2}, nil
	}
	shape := oracleShape{raw: 3 + int(data[0])%14, tier: 2 + int(data[1])%3, late: int(data[2]) % 40}
	var ops []seriesOp
	budget := 600 // scrapes: every push is compared against the whole retained state
	for data = data[3:]; len(data) >= 3 && budget > 0; data = data[3:] {
		flags := data[2]
		op := seriesOp{
			value:   oracleValues[int(data[0])%len(oracleValues)],
			repeat:  1 + int(data[1])%80,
			advance: time.Duration(1+flags&3) * oracleUnit,
			twice:   flags&4 != 0,
			read:    flags&16 != 0,
		}
		op.other = op.value
		if flags&8 != 0 {
			op.other = oracleValues[(int(data[0])+1)%len(oracleValues)]
		}
		if op.repeat > budget {
			op.repeat = budget
		}
		budget -= op.repeat
		ops = append(ops, op)
	}
	return shape, ops
}

// hardSeriesStreams are the fuzz target's seed corpus: the cases the
// property test was written around.
var hardSeriesStreams = [][]byte{
	// One value for longer than the samples, the clock and both tiers hold:
	// the open run is trimmed a sample at a time and folds as it goes.
	{0, 0, 0, 4, 79, 0, 4, 79, 0},
	// The same, seen late, with a read folding early every scrape.
	{5, 1, 33, 4, 79, 16, 0, 60, 17},
	// Single-sample runs only: every push closes a run; the ring of runs
	// fills, wraps and pops one run per push.
	{2, 2, 0, 2, 0, 0, 3, 0, 0, 2, 0, 0, 3, 0, 0, 2, 0, 0, 3, 0, 0, 2, 0, 0, 3, 0, 0, 2, 0, 0, 3, 0, 0, 2, 0, 0, 3, 0, 0},
	// Two sources at one instant, equal and unequal values, so no run
	// extends across a scrape and the oldest run is two stamps deep.
	{3, 0, 2, 4, 30, 4, 4, 30, 12, 0, 30, 4},
	// Zero against minus zero and NaN against NaN: bits, not ==, close runs.
	{1, 0, 0, 0, 5, 0, 1, 5, 0, 0, 5, 0, 12, 6, 0, 13, 6, 0, 12, 6, 0},
	// A counter that climbs, resets and idles, at uneven steps that skip
	// whole tier-1 buckets.
	{9, 2, 7, 2, 3, 3, 3, 2, 1, 0, 40, 2, 2, 1, 3, 3, 9, 0, 0, 20, 19},
	// A long run closed by one sample and reopened: eviction crosses from
	// a closed run into the open one mid-bucket.
	{13, 1, 0, 5, 50, 1, 6, 0, 0, 5, 50, 1, 10, 0, 16, 5, 17, 0},
}

// FuzzSeriesRuns holds run-length storage to the per-sample reference
// over arbitrary streams.
func FuzzSeriesRuns(f *testing.F) {
	for _, data := range hardSeriesStreams {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		shape, ops := decodeSeriesOps(data)
		runSeriesOracle(t, shape, ops)
	})
}

// TestSeriesRunsMatchPerSampleRings is the property test: seeded random
// streams — long constant runs, single-sample runs, NaN and signed
// zeros, counters that reset, two pushes at one instant, series first
// seen late — at capacities small enough that sample-wise eviction, run
// trimming, clock compaction and tier fallback all happen within a few
// dozen scrapes, compared with the reference after every push.
func TestSeriesRunsMatchPerSampleRings(t *testing.T) {
	for _, data := range hardSeriesStreams {
		shape, ops := decodeSeriesOps(data)
		runSeriesOracle(t, shape, ops)
	}
	seeds := int64(150)
	if raceEnabled {
		seeds = 30 // one goroutine: the detector only makes it slow
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := oracleShape{raw: 3 + rng.Intn(14), tier: 2 + rng.Intn(3), late: rng.Intn(40)}
		var ops []seriesOp
		counter := 0.0
		for scrapes := 0; scrapes < 300; {
			op := seriesOp{repeat: 1, advance: oracleUnit, read: rng.Intn(6) == 0}
			switch rng.Intn(6) {
			case 0: // a long constant run
				op.value, op.repeat = oracleValues[rng.Intn(len(oracleValues))], 1+rng.Intn(3*shape.raw)
			case 1: // single-sample runs
				op.value = rng.Float64()
			case 2: // a counter moving, sometimes from zero again
				if counter += float64(rng.Intn(3)); rng.Intn(8) == 0 {
					counter = 0
				}
				op.value, op.repeat = counter, 1+rng.Intn(4)
			case 3: // uneven scrape intervals
				op.value, op.repeat = oracleValues[rng.Intn(len(oracleValues))], 1+rng.Intn(5)
				op.advance = time.Duration(1+rng.Intn(7)) * oracleUnit / 2
			default: // two sources on one series
				op.value, op.repeat, op.twice = oracleValues[rng.Intn(len(oracleValues))], 1+rng.Intn(shape.raw), true
				if op.other = op.value; rng.Intn(2) == 0 {
					op.other = oracleValues[rng.Intn(len(oracleValues))]
				}
			}
			scrapes += op.repeat
			ops = append(ops, op)
		}
		runSeriesOracle(t, shape, ops)
	}
}

package telemetry

import (
	"math"
	"slices"
	"sort"
)

// SeriesRef names one series during a Walk: a counter or gauge child, a
// func family's single value, one expanded series of a histogram child,
// or, in WalkRollups, a rollup. It is a plain value — holding one
// allocates nothing — and materialises the series' name and label map
// only when Describe is called.
type SeriesRef struct {
	f    *family
	c    *child // nil for a func family
	part int    // histogram children: index into buckets…, +Inf, _sum, _count
}

// Walk calls fn once per series with the series' ordinal, its current
// value, and a ref that can describe it. It is the one enumeration of a
// registry: families sorted by name, children in creation order, each
// histogram child expanded to its _bucket series (le ascending, +Inf
// last), then _sum, then _count — the order Snapshot returns and
// WritePrometheus prints, stable between calls. Rollups are not walked.
//
// Ordinals are dense (0..n-1 over the registry's n series and rollups),
// assigned at creation, and never reused or reassigned, so a consumer can
// keep per-series state in a slice indexed by ordinal; a family created
// later may sort before existing ones, so ordinals are not ascending in
// walk order. The walk itself allocates nothing (histograms wider than
// histScratch buckets excepted) and holds no registry or histogram lock
// while fn runs. A nil registry walks nothing.
func (r *Registry) Walk(fn func(ord int, value float64, ref SeriesRef)) {
	r.walk(false, nil, fn)
}

// WalkRollups is Walk as the time-series store reads a registry: a family
// with a WorkerLabel label yields its rollups (see Registry) and the
// children of the workers in asked, merged by ordinal, so a rollup comes
// where Walk meets its first member. Other members are not visited: the
// walk follows the families, not the boards. It allocates nothing while a
// family has at most 64 rollups and asked children.
func (r *Registry) WalkRollups(asked map[string]struct{}, fn func(ord int, value float64, ref SeriesRef)) {
	r.walk(true, asked, fn)
}

// walk is Walk, or WalkRollups when rolled is set.
func (r *Registry) walk(rolled bool, asked map[string]struct{}, fn func(ord int, value float64, ref SeriesRef)) {
	if r == nil {
		return
	}
	var scratch [histScratch]uint64
	var picked [64]*child
	for _, f := range r.sortedFamilies() {
		if f.fn != nil {
			fn(f.ord, f.fn(), SeriesRef{f: f})
			continue
		}
		// get appends to f.order and f.rollups under r.mu; both are
		// append-only, so the prefix captured here stays valid after the
		// unlock.
		r.mu.Lock()
		children := f.order
		if rolled && f.worker >= 0 {
			children = r.rolledLocked(f, asked, picked[:0])
		}
		r.mu.Unlock()
		for _, c := range children {
			ref := SeriesRef{f: f, c: c}
			if f.typ != TypeHistogram {
				fn(c.ord, math.Float64frombits(c.bits.Load()), ref)
				continue
			}
			c.mu.Lock()
			counts := append(scratch[:0], c.counts...)
			sum, count := c.sum, c.count
			c.mu.Unlock()
			for i, n := range counts {
				ref.part = i
				fn(c.ord+i, float64(n), ref)
			}
			ref.part = len(counts)
			fn(c.ord+ref.part, sum, ref)
			ref.part++
			fn(c.ord+ref.part, float64(count), ref)
		}
	}
}

// histScratch is how many cumulative counts (finite buckets plus +Inf)
// Walk copies out of a histogram child without allocating.
const histScratch = 32

// rolledLocked returns f's rollups merged by ordinal, in buf, with the
// children of the workers in asked. Caller holds r.mu.
func (r *Registry) rolledLocked(f *family, asked map[string]struct{}, buf []*child) []*child {
	buf = append(buf, f.rollups...)
	for w := range asked {
		if o, ok := r.workers[w]; ok {
			for _, row := range f.members {
				if int(o) < len(row) && row[o] != nil {
					buf = append(buf, row[o])
				}
			}
		}
	}
	slices.SortFunc(buf, func(a, b *child) int { return a.ord - b.ord })
	return buf
}

// sortedFamilies returns the registry's families sorted by name. The
// slice is cached until the next family is created and never written
// after it is built, so callers may range over it without r.mu.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sorted == nil && len(r.families) > 0 {
		fams := make([]*family, 0, len(r.families))
		for _, f := range r.families {
			fams = append(fams, f)
		}
		sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
		r.sorted = fams
	}
	return r.sorted
}

// suffix is what the series' name adds to its family's.
func (s SeriesRef) suffix() string {
	if s.f.typ != TypeHistogram {
		return ""
	}
	switch inf := len(s.c.bucketBounds); {
	case s.part <= inf:
		return "_bucket"
	case s.part == inf+1:
		return "_sum"
	default:
		return "_count"
	}
}

// le returns a _bucket series' upper bound; ok is false for every other
// series.
func (s SeriesRef) le() (bound float64, ok bool) {
	if s.suffix() != "_bucket" {
		return 0, false
	}
	if s.part == len(s.c.bucketBounds) {
		return math.Inf(1), true
	}
	return s.c.bucketBounds[s.part], true
}

// labelPairs returns the series' own label names and values.
func (s SeriesRef) labelPairs() (names, values []string) {
	if s.c == nil {
		return nil, nil
	}
	if w := s.f.worker; w >= 0 && s.c.rollup == nil {
		return append(s.f.labels[:w:w], s.f.labels[w+1:]...), s.c.labelValues
	}
	return s.f.labels, s.c.labelValues
}

// Describe materialises the series' name (histogram series under their
// expanded _bucket/_sum/_count names) and label set: the child's labels,
// then extraName=extraValue when extraName is non-empty, then le on a
// bucket series. The map is freshly built and the caller's to keep; it
// is nil when the series has no labels at all.
func (s SeriesRef) Describe(extraName, extraValue string) (name string, labels map[string]string) {
	names, values := s.labelPairs()
	bound, bucket := s.le()
	n := len(names)
	if extraName != "" {
		n++
	}
	if bucket {
		n++
	}
	if n > 0 {
		labels = make(map[string]string, n)
		for i := range names {
			labels[names[i]] = values[i]
		}
		if extraName != "" {
			labels[extraName] = extraValue
		}
		if bucket {
			labels["le"] = formatValue(bound)
		}
	}
	return s.f.name + s.suffix(), labels
}

// Snapshot renders every registered family as structured Samples — the
// exact series WritePrometheusLabeled(w, extraName, extraValue) would
// emit, without a text round-trip, in Walk's order. Empty extraName
// injects nothing. A nil registry returns nil.
func (r *Registry) Snapshot(extraName, extraValue string) Samples {
	var out Samples
	r.Walk(func(_ int, value float64, ref SeriesRef) {
		name, labels := ref.Describe(extraName, extraValue)
		out = append(out, Sample{Name: name, Labels: labels, Value: value})
	})
	return out
}

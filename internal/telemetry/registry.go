package telemetry

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType distinguishes the exposition families.
type MetricType int

const (
	// TypeCounter is a monotonically increasing value.
	TypeCounter MetricType = iota
	// TypeGauge is a value that can go up and down.
	TypeGauge
	// TypeHistogram is a fixed-bucket distribution.
	TypeHistogram
)

// String returns the Prometheus TYPE keyword for the metric kind.
func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Registry is a set of named metric families, each holding one child per
// distinct label-value combination. Get-or-create accessors make call
// sites idempotent: asking for the same (name, labels) twice returns the
// same handle. Safe for concurrent use; a nil *Registry no-ops everywhere.
//
// Label-cardinality rule (see DESIGN.md §7): label values must come from
// small, bounded sets — worker ids, function names, short enums. Never
// label by job id, argument content, or timestamps.
//
// Every series gets a dense, stable ordinal when its child is created:
// a counter or gauge child one, a func family one, a histogram child
// len(buckets)+3 consecutive ones (its _bucket series incl. +Inf, then
// _sum and _count). Children are never removed, so an ordinal names
// the same series for the registry's lifetime — see Walk.
//
// Rollups: a family with a WorkerLabel label also keeps one rollup per
// label set without the worker, holding its members' sum at write time;
// it is created with its first member and takes the ordinal just before
// it. Worker-labelled values are integers, so the sums are exact in any
// order: a non-integer, NaN or infinite Add or Set on such a child panics,
// and a worker-labelled histogram cannot be registered. Walk shows every
// member and no rollup; WalkRollups shows the rollups and asked members.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	sorted   []*family        // families by name; nil after a family is created
	series   int              // ordinals handed out so far
	workers  map[string]int32 // WorkerLabel values interned with their first child, by ordinal
	// children and values are the slabs new series are cut from, a chunk
	// at a time, so registering thousands of series allocates a few slabs,
	// not a child and its values each; children are never removed, so no
	// slab is freed early.
	children []child
	values   []string
}

// WorkerLabel is the label whose families keep rollups.
const WorkerLabel = "worker"

// family is one exposition family: a name, help, type, and its children.
type family struct {
	name     string
	help     string
	typ      MetricType
	labels   []string          // label names, creation order
	buckets  []float64         // TypeHistogram only
	byKey    map[string]*child // by appendKey; empty with a worker label, see members
	order    []*child          // creation order, for stable exposition; append-only
	fn       func() float64
	ord      int              // the func family's series ordinal
	worker   int              // index of WorkerLabel in labels; -1 without one
	rollups  []*child         // creation order; append-only
	rollupOf map[string]int32 // rollups' indexes by appendKey without the worker
	members  [][]*child       // members[rollup index][worker ordinal]; nil where none
}

// child is one labeled series within a family.
type child struct {
	labelValues []string      // a rollup's lack the worker's
	ord         int           // first series ordinal (histograms take a run)
	bits        atomic.Uint64 // counter/gauge value as float64 bits
	rollup      *child        // a worker-labelled child's rollup; nil otherwise
	*histogram                // a histogram child's state; nil otherwise
}

// histogram is a histogram child's state, guarded by mu.
type histogram struct {
	mu           sync.Mutex
	bucketBounds []float64 // finite upper bounds, shared with the family
	counts       []uint64  // cumulative per-bucket counts plus +Inf
	sum          float64
	count        uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), workers: make(map[string]int32)}
}

// Counter returns the counter for (name, label pairs), creating family and
// child as needed. kv alternates label name, label value. Misuse —
// invalid names, mismatched label sets, or a name already registered with
// a different type — panics: metric identity is a programming error, not
// a runtime condition.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	c := r.get(name, help, TypeCounter, nil, kv)
	if c == nil {
		return nil
	}
	return (*Counter)(c)
}

// Gauge returns the gauge for (name, label pairs); see Counter for rules.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	c := r.get(name, help, TypeGauge, nil, kv)
	if c == nil {
		return nil
	}
	return (*Gauge)(c)
}

// Histogram returns the histogram for (name, label pairs). buckets are the
// inclusive upper bounds of the fixed buckets, strictly increasing; an
// implicit +Inf bucket is appended. The first creation of a family fixes
// its buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, kv ...string) *Histogram {
	if r != nil && len(buckets) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %s needs at least one bucket", name))
	}
	c := r.get(name, help, TypeHistogram, buckets, kv)
	if c == nil {
		return nil
	}
	return &Histogram{child: c}
}

// CounterFunc registers a counter family whose single unlabeled value is
// read from fn at exposition time (for externally accumulated monotone
// values, e.g. metered joules).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, TypeCounter, fn)
}

// GaugeFunc registers a gauge family read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, TypeGauge, fn)
}

func (r *Registry) registerFunc(name, help string, typ MetricType, fn func() float64) {
	if r == nil {
		return
	}
	if fn == nil {
		panic(fmt.Sprintf("telemetry: nil func for %s", name))
	}
	mustValidName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("telemetry: metric %s already registered", name))
	}
	r.addFamily(&family{name: name, help: help, typ: typ, fn: fn, ord: r.takeOrdinals(1), worker: -1})
}

// addFamily registers f and drops the cached name order. Caller holds r.mu.
func (r *Registry) addFamily(f *family) {
	r.families[f.name] = f
	r.sorted = nil
}

// takeOrdinals reserves n consecutive series ordinals and returns the
// first. Caller holds r.mu.
func (r *Registry) takeOrdinals(n int) int {
	first := r.series
	r.series += n
	return first
}

// get is the by-name get-or-create of the typed accessors. It resolves
// the family on every call and then takes a handle's path, so a series
// that exists is found without allocating.
func (r *Registry) get(name, help string, typ MetricType, buckets []float64, kv []string) *child {
	if r == nil {
		return nil
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label kv list for %s", name))
	}
	var nb, vb [8]string
	names, values := nb[:0], vb[:0]
	for i := 0; i < len(kv); i += 2 {
		names = append(names, kv[i])
		values = append(values, kv[i+1])
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var f *family
	return r.seriesLocked(&f, name, help, typ, buckets, names, values)
}

// familyLocked returns the family name, checking that it is typ with
// labels, or validates name and labels and creates it. The caller creates
// the family's first child before it lets go of r.mu, so a family never
// shows without one. Caller holds r.mu.
func (r *Registry) familyLocked(name, help string, typ MetricType, buckets []float64, labels []string) *family {
	f, ok := r.families[name]
	if !ok {
		mustValidName(name)
		for _, l := range labels {
			mustValidLabel(l)
		}
		f = &family{
			name:     name,
			help:     help,
			typ:      typ,
			labels:   slices.Clone(labels),
			buckets:  append([]float64(nil), buckets...),
			byKey:    make(map[string]*child),
			worker:   slices.Index(labels, WorkerLabel),
			rollupOf: make(map[string]int32),
		}
		for i := 1; i < len(f.buckets); i++ {
			if f.buckets[i] <= f.buckets[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %s buckets not strictly increasing", name))
			}
		}
		if typ == TypeHistogram && f.worker >= 0 {
			panic(fmt.Sprintf("telemetry: histogram %s cannot have a %s label", name, WorkerLabel))
		}
		r.addFamily(f)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %s is a %s, requested as %s", name, f.typ, typ))
	}
	if f.fn != nil {
		panic(fmt.Sprintf("telemetry: metric %s is func-backed", name))
	}
	if !slices.Equal(labels, f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s has labels %v, requested with [%s]", name, f.labels, strings.Join(labels, " ")))
	}
	return f
}

// childLocked creates f's child with label values values under key, which
// no child of f has yet, in a family without a worker label: its
// ordinals, its place in the creation order. Caller holds r.mu.
func (r *Registry) childLocked(f *family, values []string, key string) *child {
	c := r.newChildLocked(values)
	if f.typ == TypeHistogram {
		c.histogram = &histogram{bucketBounds: f.buckets, counts: make([]uint64, len(f.buckets)+1)}
		c.ord = r.takeOrdinals(len(f.buckets) + 3)
	} else {
		c.ord = r.takeOrdinals(1)
	}
	f.byKey[key] = c
	f.order = append(f.order, c)
	return c
}

// newChildLocked returns a zero child, cut from the registry's slab, with
// a copy of values. A slab is a quarter of the series so far, within
// 16..256 children. Caller holds r.mu.
func (r *Registry) newChildLocked(values []string) *child {
	if len(r.children) == 0 {
		r.children = make([]child, min(max(r.series/4, 16), 256))
	}
	c := &r.children[0]
	r.children = r.children[1:]
	if cap(r.values)-len(r.values) < len(values) {
		r.values = make([]string, 0, max(len(values), 2*len(r.children)+2))
	}
	n := len(r.values)
	r.values = append(r.values, values...)
	c.labelValues = r.values[n:len(r.values):len(r.values)]
	return c
}

// appendKey appends the key of label values values but the one at skip
// (-1 skips none): each value after its length as a uvarint (one byte
// under 128), so only equal label values share a key.
func appendKey(key []byte, values []string, skip int) []byte {
	for i, v := range values {
		if i != skip {
			key = append(binary.AppendUvarint(key, uint64(len(v))), v...)
		}
	}
	return key
}

// Family is a handle on one counter or gauge family, resolved once: a
// component that registers a family's children by the thousand (a series
// per worker) or looks one up per job (a series per function) keeps it
// and asks it for children by label values alone. The family's name and
// label names are validated when the handle first creates or finds a
// child, and a lookup after that is one lock, a key built on the stack
// and one map probe (two small ones with a worker label: the rollup and
// the worker's ordinal). A family still appears with its first child: taking
// the handle registers nothing. Children are those the by-name accessors
// return for the same labels. A nil *Family, which a nil *Registry hands
// out, returns nil children.
type Family struct {
	r      *Registry
	name   string
	help   string
	typ    MetricType
	labels []string
	f      *family // bound by the first lookup; read and written under r.mu
}

// CounterFamily returns a handle on the counter family name with label
// names labels.
func (r *Registry) CounterFamily(name, help string, labels ...string) *Family {
	return r.newFamily(name, help, TypeCounter, labels)
}

// GaugeFamily returns a handle on the gauge family name with label names
// labels.
func (r *Registry) GaugeFamily(name, help string, labels ...string) *Family {
	return r.newFamily(name, help, TypeGauge, labels)
}

func (r *Registry) newFamily(name, help string, typ MetricType, labels []string) *Family {
	if r == nil {
		return nil
	}
	return &Family{r: r, name: name, help: help, typ: typ, labels: labels}
}

// Counter returns the counter family's child for values, one per label
// name in order, creating it as needed.
func (h *Family) Counter(values ...string) *Counter {
	return (*Counter)(h.child(TypeCounter, values))
}

// Gauge returns the gauge family's child for values; see Counter.
func (h *Family) Gauge(values ...string) *Gauge {
	return (*Gauge)(h.child(TypeGauge, values))
}

// child is Counter and Gauge: a hit allocates nothing.
func (h *Family) child(typ MetricType, values []string) *child {
	if h == nil {
		return nil
	}
	if h.typ != typ {
		panic(fmt.Sprintf("telemetry: %s family %s requested as a %s", h.typ, h.name, typ))
	}
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	return h.r.seriesLocked(&h.f, h.name, h.help, typ, nil, h.labels, values)
}

// seriesLocked returns the child for values of the family *fp, binding
// *fp first when it is nil (familyLocked) and creating the child when it
// is new (childLocked, or memberLocked with a worker label). Its key is
// built in a stack buffer, so a hit allocates nothing. Caller holds r.mu.
func (r *Registry) seriesLocked(fp **family, name, help string, typ MetricType, buckets []float64, labels, values []string) *child {
	if len(values) != len(labels) {
		panic(fmt.Sprintf("telemetry: metric %s has labels [%s], requested with %d values", name, strings.Join(labels, " "), len(values)))
	}
	if *fp == nil {
		*fp = r.familyLocked(name, help, typ, buckets, labels)
	}
	var buf [128]byte
	key := appendKey(buf[:0], values, (*fp).worker)
	if (*fp).worker >= 0 {
		return r.memberLocked(*fp, values, key)
	}
	if c := (*fp).byKey[string(key)]; c != nil {
		return c
	}
	return r.childLocked(*fp, values, string(key))
}

// memberLocked is seriesLocked for f, a family with a worker label: the
// child is filed under its rollup's index, found by rollup key, and its
// worker's ordinal, so no key is kept per series. A new child takes the
// next ordinal, after its rollup's when that is new too, and interns its
// worker when it is the worker's first. Caller holds r.mu.
func (r *Registry) memberLocked(f *family, values []string, rollupKey []byte) *child {
	ri, rolled := f.rollupOf[string(rollupKey)]
	w, known := r.workers[values[f.worker]]
	if rolled && known && int(w) < len(f.members[ri]) && f.members[ri][w] != nil {
		return f.members[ri][w]
	}
	c := r.newChildLocked(values)
	if !rolled {
		ru := r.newChildLocked(append(values[:f.worker:f.worker], values[f.worker+1:]...))
		ru.ord = r.takeOrdinals(1)
		ri = int32(len(f.rollups))
		f.rollupOf[string(rollupKey)] = ri
		f.rollups = append(f.rollups, ru)
		f.members = append(f.members, nil)
	}
	if !known {
		w = int32(len(r.workers))
		r.workers[c.labelValues[f.worker]] = w
	}
	c.rollup = f.rollups[ri]
	c.ord = r.takeOrdinals(1)
	for int(w) >= len(f.members[ri]) {
		f.members[ri] = append(f.members[ri], nil)
	}
	f.members[ri][w] = c
	f.order = append(f.order, c)
	return c
}

// HasWorker reports whether some child carries WorkerLabel=w: a lookup in
// the worker intern table, which it leaves as it was. A nil registry has none.
func (r *Registry) HasWorker(w string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.workers[w]
	return ok
}

// Counter is a monotonically increasing metric. Nil-safe.
type Counter child

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (negative deltas panic: counters only go up).
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	if v < 0 {
		panic(fmt.Sprintf("telemetry: negative counter add %v", v))
	}
	(*child)(c).add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is an up-down metric. Nil-safe.
type Gauge child

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	if g.rollup == nil {
		g.bits.Store(math.Float64bits(v))
		return
	}
	mustWhole(v)
	g.rollup.addFloat(v - math.Float64frombits(g.bits.Swap(math.Float64bits(v))))
}

// Add adjusts the value by v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	(*child)(g).add(v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// add adds v to the child and, for a worker-labelled child, to its rollup.
func (c *child) add(v float64) {
	if c.rollup != nil {
		mustWhole(v)
		c.rollup.addFloat(v)
	}
	c.addFloat(v)
}

// mustWhole panics unless v is an integer a float64 holds exactly.
func mustWhole(v float64) {
	if !(math.Abs(v) <= 1<<53 && v == math.Trunc(v)) {
		panic(fmt.Sprintf("telemetry: worker-labelled value %v is not an integer", v))
	}
}

// addFloat CAS-adds v to the child's float64 bits.
func (c *child) addFloat(v float64) {
	for {
		old := c.bits.Load()
		newBits := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, newBits) {
			return
		}
	}
}

// Histogram is a fixed-bucket distribution. Nil-safe.
type Histogram struct {
	child *child
}

// Observe adds one sample, counting it into every cumulative le-bucket it
// fits (the Prometheus histogram contract) plus the implicit +Inf bucket.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	c := h.child
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sum += v
	c.count++
	c.counts[len(c.counts)-1]++ // +Inf catches everything
	for i := len(c.bucketBounds) - 1; i >= 0; i-- {
		if v <= c.bucketBounds[i] {
			c.counts[i]++
		} else {
			break
		}
	}
}

// QuantileFromCumulative resolves quantile q over cumulative le-bucket
// counts: bounds are the finite bucket upper bounds, cumulative the
// per-bucket cumulative counts (the +Inf bucket last), total the
// observation count. Samples landing only in the +Inf bucket report
// the highest finite bound (the same convention Prometheus's
// histogram_quantile uses). Shared by Samples.HistogramQuantile and the
// tsdb quantile_over_time op.
func QuantileFromCumulative(bounds []float64, cumulative []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	for i, c := range cumulative {
		if c >= rank && i < len(bounds) {
			return bounds[i]
		}
	}
	return bounds[len(bounds)-1]
}

// LogBuckets returns n log-spaced bucket bounds from lo to hi inclusive:
// each bound is the one before it times (hi/lo)^(1/(n-1)). lo must be
// positive, hi greater than lo, n at least 2.
func LogBuckets(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= lo || n < 2 {
		panic(fmt.Sprintf("telemetry: bad bucket shape lo=%v hi=%v n=%d", lo, hi, n))
	}
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	edge := lo
	for i := 0; i < n; i++ {
		out[i] = edge
		edge *= ratio
	}
	out[n-1] = hi // kill accumulation error on the last edge
	return out
}

// mustValidName panics unless name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func mustValidName(name string) {
	if !validMetricName(name, true) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
}

// mustValidLabel panics unless name matches [a-zA-Z_][a-zA-Z0-9_]*.
func mustValidLabel(name string) {
	if !validMetricName(name, false) {
		panic(fmt.Sprintf("telemetry: invalid label name %q", name))
	}
}

func validMetricName(name string, allowColon bool) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r == ':' && allowColon:
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

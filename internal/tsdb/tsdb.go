// Package tsdb is the platform's embedded time-series store: a
// dependency-free, bounded-memory recorder that scrapes telemetry
// registries on the capacity-aggregator tick (virtual clock in sim
// mode, wall clock in live mode) into per-label-set series with two
// downsample tiers (raw → 10s → 1m), plus a small windowed query
// engine (rate, increase, avg/min/max/last_over_time, histogram
// quantile_over_time via bucket merge) over them.
//
// Storage: most series do not move between two scrapes, so a series
// holds its raw samples as runs — a value, the scrape it was first seen
// at and how many scrapes it lasted — against one store-wide clock of
// scrape offsets. A sample that repeats the one before it bumps a count;
// only a changed value writes anything. Config.RawCapacity still bounds
// a series in samples (the oldest run is trimmed a sample at a time), a
// sample is folded into the tiers when it leaves the runs or when a tier
// is read, whichever is first, and every read answers bit for bit what a
// ring of one Point per scrape folded at every push would.
//
// Worker series: the paper meters the rack, not the board, so a series
// whose label set includes "worker" gets no series of its own. The store
// reads registries with telemetry.Registry.WalkRollups, which yields the
// sums the registry keeps at write time over the same name and labels
// without "worker" — one series per source (shard stays): a shard's busy
// boards, attempts, boots and faults — and never visits the boards. The
// registries and /metrics keep every worker's series. A Query or
// WriteNDJSON whose matchers name worker=w asks for w: from the next
// scrape on the walk also yields w's own series. An ask is a lookup per
// rollup of each source; a worker no source has adds no state. SLO
// rules cannot name a worker: a Rule scopes by function only.
//
// On top of the store sit two consumers:
//
//   - an SLO engine (slo.go) evaluating declarative objectives —
//     latency threshold, error ratio, J/function energy budget — as
//     multi-window burn-rate alerts, with firing/resolved transitions
//     recorded in the store's alert history. A rule binds
//     the series it reads once, in first-seen order, and walks each
//     window forward through a run cursor instead of searching;
//   - an arrival-rate tracker (arrival.go) maintaining EWMA and
//     sliding-window per-function submission rates as synthetic,
//     queryable series — the feed-in for forecast-driven warm pools.
//
// Determinism: the store consumes no randomness and schedules no
// events of its own — it samples whenever its owner's tick calls
// Scrape, iterates sources in registration order and series in
// first-seen order, and a nil *Store no-ops everywhere, so a seeded
// simulation without a store is byte-identical to one that never
// linked this package.
package tsdb

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
)

// The store's sizes and resolutions.
const (
	// DefaultRawCapacity is how many raw samples a series retains when
	// Config leaves it zero.
	DefaultRawCapacity = 1024
	// DefaultTierCapacity is the per-series per-tier ring size in buckets
	// when Config leaves it zero.
	DefaultTierCapacity = 512
	// DefaultTier1 is the first downsample resolution.
	DefaultTier1 = 10 * time.Second
	// DefaultTier2 is the second downsample resolution.
	DefaultTier2 = time.Minute
	// DefaultAlertCapacity bounds the alert history: the newest
	// transitions are kept.
	DefaultAlertCapacity = 1024
)

// Config tunes a Store.
type Config struct {
	// RawCapacity is how many raw samples each series retains (default
	// DefaultRawCapacity; the oldest go first, into the tiers). Settable
	// because the experiments' tsdb golden renders a small-store arm.
	RawCapacity int
	// TierCapacity bounds each downsample tier's ring (default
	// DefaultTierCapacity buckets per tier). Settable for the same arm.
	TierCapacity int
	// Tracer is not read: alert transitions are in the alert log
	// (Alerts). It stays so code that still sets it compiles.
	Tracer *trace.Tracer
}

// Point is one raw sample: a cluster-clock offset and a value.
type Point struct {
	// At is the sample's cluster-clock offset.
	At time.Duration
	// Value is the sample value.
	Value float64
}

// MarshalJSON renders the point as {"at_ms":…,"value":…}.
func (p Point) MarshalJSON() ([]byte, error) {
	return []byte(`{"at_ms":` + strconv.FormatFloat(float64(p.At)/float64(time.Millisecond), 'g', -1, 64) +
		`,"value":` + jsonFloat(p.Value) + `}`), nil
}

// Bucket is one downsampled aggregate over a tier's resolution window.
type Bucket struct {
	// Start is the bucket's window start (aligned to the resolution).
	Start time.Duration
	// Count is how many raw points the bucket aggregates.
	Count int
	// Sum, Min, Max aggregate the raw point values.
	Sum, Min, Max float64
	// First and Last are the earliest and latest raw values in the
	// bucket — what rate/increase need once raw points have aged out.
	First, Last float64
	// FirstAt and LastAt stamp those two points.
	FirstAt, LastAt time.Duration
}

// source is one scraped registry, the shard label its samples carry,
// and the series each ordinal its walk yields is pushed to.
type source struct {
	shard  string
	reg    *telemetry.Registry
	byOrd  []int32 // registry series ordinal → 1 + index into series; 0 = not yet seen
	series []*series
}

// series is one (metric, label set) stream: its newest samples as runs
// of equal values against the store's scrape clock, and the two
// downsample tiers that remember what the runs have let go.
type series struct {
	// What a push of an unchanged value reads and writes comes first, so
	// it is one cache line of the hundreds a scrape visits.
	clk  *clock
	open run // the newest run, inline; n is 0 until the first push
	// total counts the samples ever pushed; the oldest evicted of them
	// are gone from the runs and the oldest folded are in the tiers, with
	// evicted <= folded <= total.
	total, evicted, folded int64

	closed runRing // the runs before open
	popped int64   // runs evicted whole: a run's absolute number is popped plus its index
	t1, t2 bucketRing
	labels map[string]string
	le     float64 // the parsed le label; hasLE is false when absent or malformed
	hasLE  bool
}

// metricSeries indexes every series of one metric name, preserving
// first-seen order for deterministic iteration.
type metricSeries struct {
	order []*series
	byKey map[string]*series
}

// Store is the embedded time-series database. All methods are safe for
// concurrent use, and every method no-ops on a nil *Store.
type Store struct {
	cfg Config

	mu      sync.Mutex
	sources []source
	metrics map[string]*metricSeries
	names   []string // metric names, first-seen order
	clk     clock
	asked   map[string]struct{} // workers whose own series are recorded

	arrival *arrivalTracker
	slo     *sloEngine
	// alerts is the alert history, oldest first, at most
	// DefaultAlertCapacity; alertSeq is the next transition's Seq.
	alerts   []Event
	alertSeq int64
}

// New builds a Store with the given tuning; zero fields take defaults.
func New(cfg Config) *Store {
	if cfg.RawCapacity <= 0 {
		cfg.RawCapacity = DefaultRawCapacity
	}
	if cfg.TierCapacity <= 0 {
		cfg.TierCapacity = DefaultTierCapacity
	}
	return &Store{
		cfg:     cfg,
		metrics: make(map[string]*metricSeries),
		asked:   make(map[string]struct{}),
		clk:     clock{keep: cfg.RawCapacity},
		arrival: &arrivalTracker{byFn: map[string]*arrivalState{}},
	}
}

// AddSource registers a registry to scrape. Samples from it carry
// shard="label" when label is non-empty (matching the sharded gateway's
// merged /metrics exposition); registries whose families already carry
// their own shard labels — the plane registry — pass "". Sources are
// scraped in registration order. Nil stores and registries no-op.
func (s *Store) AddSource(label string, reg *telemetry.Registry) {
	if s == nil || reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sources = append(s.sources, source{shard: label, reg: reg})
}

// Scrape samples every source at cluster-clock offset now, feeds the
// arrival tracker, and evaluates the SLO engine. The caller's tick —
// the shard plane's capacity aggregator, an experiment's scheduled
// sampler, or a live wall-clock ticker — provides the cadence; the
// store itself never schedules anything. Nil stores no-op.
func (s *Store) Scrape(now time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	interval, ok := s.tickLocked(now)
	if !ok {
		return
	}
	for i := range s.sources {
		src := &s.sources[i]
		src.reg.WalkRollups(s.asked, func(ord int, value float64, ref telemetry.SeriesRef) {
			var k int32
			if ord < len(src.byOrd) {
				k = src.byOrd[ord]
			}
			if k == 0 {
				k = s.internLocked(src, ord, ref)
			}
			src.series[k-1].push(value)
		})
	}
	s.arrival.update(s, now, interval)
	s.slo.eval(s, now)
}

// tickLocked advances the scrape clock to now, the stamp of every sample
// pushed until the next call, and returns the time since the previous
// scrape (0 on the first). A now that is not after it moves nothing and
// returns ok false: a same-instant double sample (a scheduled scrape
// coinciding with a tick) adds nothing, and a backwards clock would
// corrupt the series' time order. Caller holds s.mu.
func (s *Store) tickLocked(now time.Duration) (interval time.Duration, ok bool) {
	if s.clk.scrapes() > 0 {
		if now <= s.clk.last() {
			return 0, false
		}
		interval = now - s.clk.last()
	}
	s.clk.tick(now)
	return interval, true
}

// internLocked resolves a series met for the first time — at the point
// of the walk where its first sample is due, so metrics and series keep
// the first-seen order a by-name ingest would give them — and remembers
// it under the series' ordinal. Caller holds s.mu.
func (s *Store) internLocked(src *source, ord int, ref telemetry.SeriesRef) int32 {
	extra := ""
	if src.shard != "" {
		extra = "shard"
	}
	src.series = append(src.series, s.seriesLocked(ref.Describe(extra, src.shard)))
	for len(src.byOrd) <= ord {
		src.byOrd = append(src.byOrd, 0)
	}
	src.byOrd[ord] = int32(len(src.series))
	return src.byOrd[ord]
}

// askMatchLocked asks for the worker w a query's matchers name, if some
// source has a series labelled worker=w. Caller holds s.mu.
func (s *Store) askMatchLocked(match map[string]string) {
	w, ok := match[telemetry.WorkerLabel]
	if _, asked := s.asked[w]; !ok || asked {
		return
	}
	for _, src := range s.sources {
		if src.reg.HasWorker(w) {
			s.asked[w] = struct{}{}
			return
		}
	}
}

// seriesLocked returns the series for (name, labels), creating it on
// first sight; sources that export the same label set share one series.
// A new series keeps labels. Caller holds s.mu.
func (s *Store) seriesLocked(name string, labels map[string]string) *series {
	ms, ok := s.metrics[name]
	if !ok {
		ms = &metricSeries{byKey: make(map[string]*series)}
		s.metrics[name] = ms
		s.names = append(s.names, name)
	}
	key := labelsKey(labels)
	sr, ok := ms.byKey[key]
	if !ok {
		sr = &series{
			labels: labels,
			clk:    &s.clk,
			t1:     bucketRing{res: DefaultTier1, cap: s.cfg.TierCapacity},
			t2:     bucketRing{res: DefaultTier2, cap: s.cfg.TierCapacity},
		}
		if le, ok := labels["le"]; ok {
			bound, err := parseLE(le)
			sr.le, sr.hasLE = bound, err == nil
		}
		ms.byKey[key] = sr
		ms.order = append(ms.order, sr)
	}
	return sr
}

// MetricNames returns every metric name the store has seen, in
// first-seen order.
func (s *Store) MetricNames() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.names...)
}

// SeriesCount returns the total number of distinct (metric, label set)
// series retained.
func (s *Store) SeriesCount() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ms := range s.metrics {
		n += len(ms.order)
	}
	return n
}

// Start begins wall-clock scraping: every interval, Scrape(now()) runs
// until the returned stop function is called. Sim-mode owners never
// call Start — their tick calls Scrape on the virtual clock instead.
func (s *Store) Start(now func() time.Duration, interval time.Duration) (stop func()) {
	if s == nil || now == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Scrape(now())
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// labelsKey canonicalizes a label set into a map key: sorted
// name=value pairs joined with \x00. Nil and empty maps share "".
func labelsKey(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	names := make([]string, 0, len(labels))
	for k := range labels {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}

// appendJSONFloat appends a float as JSON renders it, spelling non-finite
// values as quoted strings (encoding/json rejects bare Inf/NaN).
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return append(strconv.AppendFloat(append(b, '"'), v, 'g', -1, 64), '"')
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// jsonFloat is appendJSONFloat as a string.
func jsonFloat(v float64) string { return string(appendJSONFloat(nil, v)) }

// matchesAll reports whether every matcher pair is present in labels.
func matchesAll(labels map[string]string, match map[string]string) bool {
	for k, v := range match {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// fmtDur renders a duration compactly for human-readable surfaces.
func fmtDur(d time.Duration) string {
	return d.Truncate(time.Millisecond).String()
}

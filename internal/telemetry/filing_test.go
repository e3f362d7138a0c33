package telemetry

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// filingShapes are the families FuzzWorkerFiling drives: the worker first,
// last, in the middle or alone among the labels, and families without one.
var filingShapes = []familyShape{
	{"w_busy", TypeGauge, []string{WorkerLabel}, nil},
	{"w_attempts_total", TypeCounter, []string{WorkerLabel, "result"}, nil},
	{"w_breaker_total", TypeCounter, []string{"to", WorkerLabel}, nil},
	{"w_board_total", TypeCounter, []string{"kind", WorkerLabel, "result"}, nil},
	{"f_submitted_total", TypeCounter, []string{"function"}, nil},
	{"f_invocations_total", TypeCounter, []string{"function", "result"}, nil},
	{"up", TypeGauge, nil, nil},
}

// filingValues are the values each label other than the worker draws from.
// The last of "result", "kind" and "function" hold a NUL byte, so label
// sets such as {MatMul\0ok, error} and {MatMul, ok\0error} differ only in
// where a NUL falls: a key that joins values with NULs files them as one.
var filingValues = map[string][]string{
	"result":   {"ok", "error", "timeout", "crash", "hang", "slow", "ok\x00error"},
	"to":       {"open", "closed"},
	"kind":     {"cold", "warm", "fault", "warm\x00ok"},
	"function": {"MatMul", "CascSHA", "RegExMatch", "FloatOps", "MatMul\x00ok"},
}

// filingWorkers is the size of the worker id pool; ids past the ones a
// run registers are the unknown workers it asks for.
const filingWorkers = 1024

func filingWorker(i int) string { return fmt.Sprintf("sbc-%04d", i%filingWorkers) }

// filingModel is the reference FuzzWorkerFiling holds a registry to: each
// family's children in a map keyed by their label values (modelKey) — the
// index every family kept before worker families were filed by worker
// ordinal — with the ordinals, rollups and values the registry must hand
// out, and the workers in order of their first child.
type filingModel struct {
	series  int
	fams    map[string]*modelFamily
	workers []string
	known   map[string]bool
	all     []*modelChild // every child, creation order
}

type modelFamily struct {
	shape    familyShape
	byKey    map[string]*modelChild
	order    []*modelChild
	rollups  map[string]*modelChild   // by their label values, joined
	byWorker map[string][]*modelChild // a worker family's children by worker
}

type modelChild struct {
	fam    *modelFamily
	values []string // a rollup's lack the worker's
	ord    int
	value  float64
	got    *child      // the registry's child; nil for a rollup
	rollup *modelChild // a worker child's rollup
}

func newFilingModel() *filingModel {
	return &filingModel{fams: map[string]*modelFamily{}, known: map[string]bool{}}
}

// child returns the model's child of s for values, creating it (and its
// rollup) with the registry's ordinal rule when it is new.
func (m *filingModel) child(s familyShape, values []string) (c *modelChild, created bool) {
	f := m.fams[s.name]
	if f == nil {
		f = &modelFamily{shape: s, byKey: map[string]*modelChild{}, rollups: map[string]*modelChild{}, byWorker: map[string][]*modelChild{}}
		m.fams[s.name] = f
	}
	key := modelKey(values)
	if c := f.byKey[key]; c != nil {
		return c, false
	}
	c = &modelChild{fam: f, values: slices.Clone(values)}
	if w := slices.Index(s.labels, WorkerLabel); w >= 0 {
		rest := slices.Delete(slices.Clone(values), w, w+1)
		rkey := modelKey(rest)
		c.rollup = f.rollups[rkey]
		if c.rollup == nil {
			c.rollup = &modelChild{fam: f, values: rest, ord: m.series}
			m.series++
			f.rollups[rkey] = c.rollup
		}
		if !m.known[values[w]] {
			m.known[values[w]] = true
			m.workers = append(m.workers, values[w])
		}
		f.byWorker[values[w]] = append(f.byWorker[values[w]], c)
	}
	c.ord = m.series
	m.series++
	f.byKey[key] = c
	f.order = append(f.order, c)
	m.all = append(m.all, c)
	return c, true
}

// modelKey is the model's key of label values values: each quoted, so
// two label sets share a key only when their values are equal.
func modelKey(values []string) string { return fmt.Sprintf("%q", values) }

// add moves c's value by d, and its rollup's with it.
func (c *modelChild) add(d float64) {
	c.value += d
	if c.rollup != nil {
		c.rollup.value += d
	}
}

// names returns the model's family names, sorted.
func (m *filingModel) names() []string {
	names := make([]string, 0, len(m.fams))
	for name := range m.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// labels returns c's label names and label map: a rollup's lack the worker.
func (c *modelChild) labels() ([]string, map[string]string) {
	names := c.fam.shape.labels
	if c.got == nil {
		names = slices.DeleteFunc(slices.Clone(names), func(l string) bool { return l == WorkerLabel })
	}
	labels := make(map[string]string, len(names))
	for i, n := range names {
		labels[n] = c.values[i]
	}
	return names, labels
}

// exposition is what WritePrometheus must print for the model.
func (m *filingModel) exposition() string {
	var b strings.Builder
	for _, name := range m.names() {
		f := m.fams[name]
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp("help "+name), name, f.shape.typ)
		for _, c := range f.order {
			names, _ := c.labels()
			fmt.Fprintf(&b, "%s%s %s\n", name, labelString(names, c.values, "", "", false, 0), formatValue(c.value))
		}
	}
	return b.String()
}

// walkTrace is what walkTrace must render for the model with asked.
func (m *filingModel) walkTrace(asked map[string]struct{}) string {
	var b bytes.Buffer
	for _, name := range m.names() {
		traceModel(&b, name, m.fams[name].order)
	}
	b.WriteString("--\n")
	b.WriteString(m.rolledTrace(asked))
	return b.String()
}

// rolledTrace is what rolledTrace must render for the model with asked.
func (m *filingModel) rolledTrace(asked map[string]struct{}) string {
	var b bytes.Buffer
	for _, name := range m.names() {
		f := m.fams[name]
		if !slices.Contains(f.shape.labels, WorkerLabel) {
			traceModel(&b, name, f.order)
			continue
		}
		var cs []*modelChild
		for _, ru := range f.rollups {
			cs = append(cs, ru)
		}
		for w := range asked {
			cs = append(cs, f.byWorker[w]...)
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].ord < cs[j].ord })
		traceModel(&b, name, cs)
	}
	return b.String()
}

// traceModel renders the model's children cs of family name as walkTrace
// renders series.
func traceModel(b *bytes.Buffer, name string, cs []*modelChild) {
	for _, c := range cs {
		_, labels := c.labels()
		fmt.Fprintf(b, "%d %s %v %g\n", c.ord, name, labels, c.value)
	}
}

// rolledTrace renders the series WalkRollups visits with asked, as
// walkTrace does.
func rolledTrace(r *Registry, asked map[string]struct{}) string {
	var b bytes.Buffer
	r.WalkRollups(asked, func(ord int, v float64, ref SeriesRef) {
		name, labels := ref.Describe("", "")
		fmt.Fprintf(&b, "%d %s %v %g\n", ord, name, labels, v)
	})
	return b.String()
}

// filingInput reads a fuzz input a byte at a time, zeros past its end.
type filingInput []byte

func (in *filingInput) next() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

// FuzzWorkerFiling holds the worker intern table and the families filed
// by rollup and worker ordinal to the label-values map they replaced. The input interleaves family-handle and by-name registration
// across worker and plain families, workers registered by the hundred (so
// a rollup can first appear after hundreds of workers), a worker
// registered again after a re-home, value writes, HasWorker, and
// WalkRollups with asked workers known and unknown. Every lookup must
// return the model's child pointer and ordinal; every walk must match the
// model's exposition bytes and walk trace; and no ask may intern a
// worker.
func FuzzWorkerFiling(f *testing.F) {
	// 301 workers registered back to back, a rollup first seen after
	// them, a write, a re-home, asks for an unknown and a ghost worker,
	// and a walk with a known and an unknown worker asked.
	f.Add([]byte{2, 1, 0, 0, 150, 0, 0, 1, 1, 44, 2, 1, 4, 0, 7, 3, 3, 7, 0, 5, 3, 232, 1, 5, 0, 7, 4, 9, 6, 2, 0, 7, 3, 232, 5})
	// Label sets that differ only in where a NUL falls: {MatMul\0ok,
	// error} then {MatMul, ok\0error} in f_invocations_total, by handle
	// and by name; then {warm\0ok, error} for sbc-0000 and {warm,
	// ok\0error} for sbc-0001 in w_board_total, which must make two
	// rollups; then a walk asking for both workers.
	f.Add([]byte{0, 5, 0, 0, 4, 1, 0, 1, 5, 0, 0, 0, 6, 1, 0, 3, 0, 0, 3, 1, 0, 0, 3, 0, 1, 1, 6, 1, 6, 2, 0, 0, 0, 1, 9})
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := make([]byte, 200*seed)
		rng.Read(in)
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := filingInput(data)
		r, m := NewRegistry(), newFilingModel()
		handles := make([]*Family, len(filingShapes))
		for i, s := range filingShapes {
			handles[i] = s.handle(r)
		}
		owner := map[*child]*modelChild{}
		// get asks the registry for s's child with values, through its
		// handle or by name, and holds it to the model.
		get := func(i int, values []string, byName bool) *modelChild {
			s := filingShapes[i]
			var c *child
			if byName {
				c = s.byName(r, values)
			} else {
				c = handles[i].get(values)
			}
			mc, created := m.child(s, values)
			if created {
				if prev := owner[c]; prev != nil {
					t.Fatalf("%s%q: handed out %s%q's child", s.name, values, prev.fam.shape.name, prev.values)
				}
				mc.got, owner[c] = c, mc
			}
			if c != mc.got || c.ord != mc.ord {
				t.Fatalf("%s%q: child %p at ordinal %d, model %p at %d", s.name, values, c, c.ord, mc.got, mc.ord)
			}
			return mc
		}
		// values draws s's label values from the input, the worker's from w.
		values := func(s familyShape, w int) []string {
			vs := make([]string, len(s.labels))
			for j, l := range s.labels {
				if l == WorkerLabel {
					vs[j] = filingWorker(w)
				} else {
					pool := filingValues[l]
					vs[j] = pool[in.next()%len(pool)]
				}
			}
			return vs
		}
		// unchanged fails when an ask interned a worker.
		unchanged := func(what string, before int) {
			if len(r.workers) != before {
				t.Fatalf("%s: the intern table went from %d to %d workers", what, before, len(r.workers))
			}
		}
		for step := 0; len(in) > 0 && step < 512; step++ {
			switch in.next() % 7 {
			case 0, 1: // one child, through its handle or by name
				i := in.next() % len(filingShapes)
				w := in.next()<<8 | in.next()
				get(i, values(filingShapes[i], w), in.next()%2 == 1)
			case 2: // a run of workers registered back to back in one family
				i := in.next() % 4
				lo, n := in.next()<<8|in.next(), 1+2*in.next()
				vs := values(filingShapes[i], lo)
				w := slices.Index(filingShapes[i].labels, WorkerLabel)
				for k := 0; k < n; k++ {
					vs[w] = filingWorker(lo + k)
					get(i, vs, k%3 == 0)
				}
			case 3: // a re-home: a worker registers its children again and resumes them
				if len(m.workers) == 0 {
					continue
				}
				id := m.workers[in.next()%len(m.workers)]
				for _, mc := range m.all {
					w := slices.Index(mc.fam.shape.labels, WorkerLabel)
					if w < 0 || mc.values[w] != id {
						continue
					}
					i := slices.IndexFunc(filingShapes, func(s familyShape) bool { return s.name == mc.fam.shape.name })
					get(i, mc.values, in.next()%2 == 1)
					if v := (*Counter)(mc.got).Value(); v != mc.value {
						t.Fatalf("%s%v: re-registered at %v, want %v", mc.fam.shape.name, mc.values, v, mc.value)
					}
				}
			case 4: // a value write
				if len(m.all) == 0 {
					continue
				}
				mc := m.all[(in.next()<<8|in.next())%len(m.all)]
				d := float64(in.next() % 4)
				if mc.fam.shape.typ == TypeGauge && in.next()%2 == 1 {
					(*Gauge)(mc.got).Set(mc.value + d)
				} else {
					(*Counter)(mc.got).Add(d)
				}
				mc.add(d)
			case 5: // HasWorker, for a worker known or not
				id := filingWorker(in.next()<<8 | in.next())
				if in.next()%4 == 0 {
					id = fmt.Sprintf("ghost-%d", in.next())
				}
				before := len(r.workers)
				if got := r.HasWorker(id); got != m.known[id] {
					t.Fatalf("HasWorker(%s) = %v, model %v", id, got, m.known[id])
				}
				unchanged("HasWorker("+id+")", before)
			default: // a walk with up to three workers asked, known or not
				asked := map[string]struct{}{}
				for k := in.next() % 4; k > 0; k-- {
					asked[filingWorker(in.next()<<8|in.next())] = struct{}{}
				}
				asked[fmt.Sprintf("ghost-%d", in.next())] = struct{}{}
				before := len(r.workers)
				if got, want := rolledTrace(r, asked), m.rolledTrace(asked); got != want {
					t.Fatalf("rollup walk with %v asked:\n%s\nmodel:\n%s", asked, got, want)
				}
				unchanged(fmt.Sprintf("WalkRollups(%v)", asked), before)
			}
		}
		var b bytes.Buffer
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if want := m.exposition(); b.String() != want {
			t.Fatalf("exposition:\n%s\nmodel:\n%s", b.String(), want)
		}
		asked := map[string]struct{}{filingWorker(0): {}, "ghost": {}}
		before := len(r.workers)
		if got, want := walkTrace(r, asked), m.walkTrace(asked); got != want {
			t.Fatalf("walk:\n%s\nmodel:\n%s", got, want)
		}
		unchanged("the last walk", before)
		for i, w := range m.workers {
			if o, ok := r.workers[w]; !ok || int(o) != i {
				t.Fatalf("worker %s interned as %d (%v), the %dth worker with a child", w, o, ok, i)
			}
		}
		if len(r.workers) != len(m.workers) {
			t.Fatalf("%d workers interned, %d have children", len(r.workers), len(m.workers))
		}
	})
}

package telemetry

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// familyShape is one family the oracle drives: its name, type and label
// names, and the values each label draws from.
type familyShape struct {
	name   string
	typ    MetricType
	labels []string
	values [][]string
}

var oracleShapes = []familyShape{
	{"w_queue_depth", TypeGauge, []string{"worker"}, [][]string{workerIDs(12)}},
	{"w_attempts_total", TypeCounter, []string{"worker", "result"}, [][]string{workerIDs(12), {"ok", "error", "timeout"}}},
	{"w_breaker_total", TypeCounter, []string{"to", "worker"}, [][]string{{"open", "closed"}, workerIDs(12)}},
	{"f_submitted_total", TypeCounter, []string{"function"}, [][]string{{"MatMul", "CascSHA", "RegExMatch", "FloatOps"}}},
	{"f_invocations_total", TypeCounter, []string{"function", "result"}, [][]string{{"MatMul", "CascSHA", "RegExMatch"}, {"ok", "error"}}},
}

func workerIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("sbc-%03d", i)
	}
	return ids
}

// byName asks r for shape's child with values through the by-name path.
func (s familyShape) byName(r *Registry, values []string) *child {
	kv := make([]string, 0, 2*len(values))
	for i, v := range values {
		kv = append(kv, s.labels[i], v)
	}
	if s.typ == TypeGauge {
		return (*child)(r.Gauge(s.name, "help "+s.name, kv...))
	}
	return (*child)(r.Counter(s.name, "help "+s.name, kv...))
}

// handle returns shape's family handle on r.
func (s familyShape) handle(r *Registry) *Family {
	if s.typ == TypeGauge {
		return r.GaugeFamily(s.name, "help "+s.name, s.labels...)
	}
	return r.CounterFamily(s.name, "help "+s.name, s.labels...)
}

func (h *Family) get(values []string) *child {
	if h.typ == TypeGauge {
		return (*child)(h.Gauge(values...))
	}
	return (*child)(h.Counter(values...))
}

// walkTrace renders every series Walk and WalkRollups visit, with their
// ordinals, values and labels, in visiting order.
func walkTrace(r *Registry, asked map[string]struct{}) string {
	var b bytes.Buffer
	visit := func(ord int, v float64, ref SeriesRef) {
		name, labels := ref.Describe("", "")
		fmt.Fprintf(&b, "%d %s %v %g\n", ord, name, labels, v)
	}
	r.Walk(visit)
	b.WriteString("--\n")
	r.WalkRollups(asked, visit)
	return b.String()
}

// TestFamilyMatchesByName is the family handles' oracle: a registry that
// interleaves handle and by-name lookups over worker and function
// families ends with the ordinals, exposition bytes and rollup walk of a
// registry that took the same steps by name alone, and at every step the
// handle and the by-name path agree on the child.
func TestFamilyMatchesByName(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plain, mixed := NewRegistry(), NewRegistry()
		plain.Counter("a_total", "before the families")
		mixed.Counter("a_total", "before the families")
		handles := make([]*Family, len(oracleShapes))
		for i, s := range oracleShapes {
			handles[i] = s.handle(mixed)
		}
		for step := 0; step < 400; step++ {
			i := rng.Intn(len(oracleShapes))
			s := oracleShapes[i]
			values := make([]string, len(s.labels))
			for j, pool := range s.values {
				values[j] = pool[rng.Intn(len(pool))]
			}
			want := s.byName(plain, values)
			var got *child
			if rng.Intn(2) == 0 {
				got = handles[i].get(values)
				if again := s.byName(mixed, values); again != got {
					t.Fatalf("seed %d step %d: %s%v: by-name child %p, family child %p", seed, step, s.name, values, again, got)
				}
			} else {
				got = s.byName(mixed, values)
				if again := handles[i].get(values); again != got {
					t.Fatalf("seed %d step %d: %s%v: family child %p, by-name child %p", seed, step, s.name, values, again, got)
				}
			}
			if got.ord != want.ord {
				t.Fatalf("seed %d step %d: %s%v: ordinal %d, by name alone %d", seed, step, s.name, values, got.ord, want.ord)
			}
			d := float64(rng.Intn(3))
			(*Counter)(want).Add(d)
			(*Counter)(got).Add(d)
		}
		var pb, mb bytes.Buffer
		if err := plain.WritePrometheus(&pb); err != nil {
			t.Fatal(err)
		}
		if err := mixed.WritePrometheus(&mb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pb.Bytes(), mb.Bytes()) {
			t.Fatalf("seed %d: exposition differs:\n%s\nvs by name alone:\n%s", seed, mb.String(), pb.String())
		}
		asked := map[string]struct{}{"sbc-003": {}, "sbc-007": {}}
		if got, want := walkTrace(mixed, asked), walkTrace(plain, asked); got != want {
			t.Fatalf("seed %d: walks differ:\n%s\nvs by name alone:\n%s", seed, got, want)
		}
	}
}

// TestFamilyBindsOnFirstChild pins the lazy binding: a handle registers
// nothing until it creates or finds a child, and a mismatched handle
// panics on its first lookup, as the by-name path does.
func TestFamilyBindsOnFirstChild(t *testing.T) {
	r := NewRegistry()
	h := r.CounterFamily("x_total", "x", "worker")
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Fatalf("a handle with no child exposed %q (%v)", b.String(), err)
	}
	if h.Counter("w1") != r.Counter("x_total", "x", "worker", "w1") {
		t.Fatal("the handle's child is not the by-name child")
	}
	for name, bad := range map[string]func(){
		"type":   func() { r.GaugeFamily("x_total", "x", "worker").Gauge("w1") },
		"labels": func() { r.CounterFamily("x_total", "x", "function").Counter("f") },
		"values": func() { h.Counter("w1", "extra") },
		"name":   func() { r.CounterFamily("bad name", "").Counter() },
		"label":  func() { r.CounterFamily("y_total", "", "bad-label").Counter("v") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a %s mismatch did not panic", name)
				}
			}()
			bad()
		}()
	}
	var nilReg *Registry
	if c := nilReg.CounterFamily("z_total", "", "function").Counter("f"); c != nil {
		t.Fatal("a nil registry's family made a counter")
	}
}

// TestFamilyAllocs pins the family path's allocations: a hit allocates
// nothing, and registering one worker's 13 series (the shape of core's
// seven and node's six) allocates at most once — children and label
// values come from the registry's slabs, and the worker is interned once
// rather than keyed per series — where the by-name path took at least
// three allocations per series. Asking whether an unknown worker has
// series allocates nothing and interns nothing.
func TestFamilyAllocs(t *testing.T) {
	r := NewRegistry()
	depth := r.GaugeFamily("queue_depth", "", "worker")
	busy := r.GaugeFamily("busy", "", "worker")
	attempts := r.CounterFamily("attempts_total", "", "worker", "result")
	breaker := r.CounterFamily("breaker_total", "", "worker", "to")
	boots := r.CounterFamily("boots_total", "", "worker", "kind")
	faults := r.CounterFamily("faults_total", "", "worker", "kind")
	energy := r.CounterFamily("energy_total", "", "function")
	register := func(id string) {
		depth.Gauge(id)
		busy.Gauge(id)
		for _, v := range []string{"ok", "error", "timeout"} {
			attempts.Counter(id, v)
		}
		for _, v := range []string{"open", "closed"} {
			breaker.Counter(id, v)
		}
		for _, v := range []string{"cold", "warm"} {
			boots.Counter(id, v)
		}
		for _, v := range []string{"crash", "hang", "error", "slow"} {
			faults.Counter(id, v)
		}
	}
	const runs = 512
	ids := make([]string, runs+2)
	for i := range ids {
		ids[i] = "sbc-" + strconv.Itoa(i)
	}
	register(ids[0])
	energy.Counter("MatMul")
	if n := testing.AllocsPerRun(100, func() {
		energy.Counter("MatMul").Inc()
		attempts.Counter(ids[0], "ok").Inc()
	}); n != 0 {
		t.Fatalf("a family hit allocates %v times, want 0", n)
	}
	next := 1
	if n := testing.AllocsPerRun(runs, func() {
		register(ids[next])
		next++
	}); n > 1 {
		t.Fatalf("registering one worker's 13 series allocates %v times, want ≤ 1", n)
	}
	workers := len(r.workers)
	if n := testing.AllocsPerRun(100, func() {
		if r.HasWorker("sbc-unknown") {
			t.Fatal("an unknown worker has series")
		}
	}); n != 0 || len(r.workers) != workers {
		t.Fatalf("HasWorker on an unknown worker allocates %v times and interns %d workers, want 0 and 0", n, len(r.workers)-workers)
	}
}

package telemetry

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var updateWalkGolden = flag.Bool("update-walk-golden", false, "regenerate testdata/walk_golden.txt")

// fuzzCorpusSamples parses every document of the FuzzParseMetrics seed
// corpus on disk and returns the samples it yields.
func fuzzCorpusSamples(t *testing.T) Samples {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParseMetrics", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus: %v", err)
	}
	var out Samples
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		// Corpus format: a version line, then string("…").
		_, lit, ok := strings.Cut(string(data), "\n")
		lit = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lit), "string("), ")")
		doc, err := strconv.Unquote(lit)
		if !ok || err != nil {
			t.Fatalf("%s: not a fuzz corpus string: %v", file, err)
		}
		ss, err := ParseText(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		out = append(out, ss...)
	}
	return out
}

// goldenRegistry builds a registry covering every series shape — plain
// and labelled counters and gauges, histograms, func families, values
// that need escaping, non-finite values, bucket counts wide enough that
// %g would print an exponent — plus one gauge per sample of the fuzz
// seed corpus. Families are created out of name order.
func goldenRegistry(t *testing.T) *Registry {
	r := NewRegistry()
	r.Gauge("zz_depth", "Queued jobs.", "worker", `od"d\x`+"\n").Set(2)
	r.Counter("jobs_total", "Jobs by outcome.", "function", "Casc SHA", "result", "ok").Add(3)
	r.Counter("jobs_total", "Jobs by outcome.", "function", "Casc SHA", "result", "error").Add(1)
	h := r.Histogram("lat_seconds", "Latency\nsplit \\ over lines.", []float64{0.1, 1, 10}, "mode", "sim")
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 100} {
		h.Observe(v)
	}
	big := r.Histogram("big_seconds", "", []float64{1e-7, 2.5e6})
	big.child.counts[0], big.child.counts[1], big.child.counts[2] = 1, 1234567, 12345678
	big.child.count, big.child.sum = 12345678, 1e21
	r.GaugeFunc("watts", "Instantaneous draw.", func() float64 { return 19.6 })
	r.CounterFunc("aa_joules_total", "", func() float64 { return 1e6 })
	r.Counter("plain_total", "").Add(1e6)
	r.Histogram("lat_seconds", "", []float64{0.1, 1, 10}, "mode", "live").Observe(0.2)
	for _, s := range fuzzCorpusSamples(t) {
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		kv := make([]string, 0, 2*len(keys))
		for _, k := range keys {
			kv = append(kv, k, s.Labels[k])
		}
		r.Gauge("fuzz_"+s.Name, "", kv...).Set(s.Value)
	}
	return r
}

// TestWalkGoldenPR13 pins WritePrometheus, WritePrometheusLabeled and
// Snapshot to the bytes the tree produced at PR 13, when each of the
// three enumerated the registry with its own loop; they are now one
// walk. Regenerate only with a deliberate, explained change:
// go test -run WalkGolden -update-walk-golden.
func TestWalkGoldenPR13(t *testing.T) {
	r := goldenRegistry(t)
	var buf bytes.Buffer
	buf.WriteString("== WritePrometheus ==\n")
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("== WritePrometheusLabeled shard ==\n")
	if err := r.WritePrometheusLabeled(&buf, "shard", "sh\"ard\\00\nline"); err != nil {
		t.Fatal(err)
	}
	for _, extra := range []string{"", "shard"} {
		fmt.Fprintf(&buf, "== Snapshot %q ==\n", extra)
		buf.WriteString(exposeSamples(r.Snapshot(extra, "shard-07")))
	}
	path := filepath.Join("testdata", "walk_golden.txt")
	if *updateWalkGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", buf.Len(), path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-walk-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("registry rendering drifted from the PR 13 golden; got:\n%s", buf.String())
	}
	if (*Registry)(nil).Snapshot("", "") != nil {
		t.Fatal("nil registry snapshot is not nil")
	}
}

// walkOrdinals maps each series, as name plus rendered labels, to the
// ordinal Walk reports for it.
func walkOrdinals(t *testing.T, r *Registry) map[string]int {
	t.Helper()
	out := map[string]int{}
	r.Walk(func(ord int, value float64, ref SeriesRef) {
		name, labels := ref.Describe("", "")
		key := exposeSamples(Samples{{Name: name, Labels: labels}})
		if _, dup := out[key]; dup {
			t.Fatalf("series %s walked twice", key)
		}
		out[key] = ord
	})
	seen := make([]bool, len(out))
	for key, ord := range out {
		if ord < 0 || ord >= len(out) || seen[ord] {
			t.Fatalf("ordinal %d of %s is outside 0..%d or taken twice", ord, key, len(out)-1)
		}
		seen[ord] = true
	}
	return out
}

// TestWalkOrdinalsDenseAndStable grows a registry in steps — families
// that sort before existing ones, new children of old families,
// histograms, func families — and holds the ordinals to the contract a
// per-ordinal slice relies on: 0..n-1 with no gaps, and a series keeps
// its ordinal whatever is created after it.
func TestWalkOrdinalsDenseAndStable(t *testing.T) {
	r := NewRegistry()
	steps := []func(){
		func() {
			r.Counter("m_total", "", "function", "a").Inc()
			r.Histogram("m_seconds", "", []float64{1, 2}, "function", "a").Observe(1)
		},
		func() {
			r.Gauge("a_first", "").Set(1) // sorts before everything
			r.Counter("m_total", "", "function", "b").Inc()
		},
		func() {
			r.GaugeFunc("b_func", "", func() float64 { return 1 })
			r.Histogram("m_seconds", "", []float64{1, 2}, "function", "b").Observe(3)
			r.Histogram("c_seconds", "", LogBuckets(1, 100, histScratch+4)).Observe(5)
		},
		func() { r.Counter("m_total", "", "function", "a").Inc() }, // existing child: nothing new
	}
	prev := map[string]int{}
	const grown = 1 + 5 + 2 + 1 + 5 + (histScratch + 4 + 3)
	wantLen := []int{1 + 5, 1 + 5 + 2, grown, grown}
	for i, step := range steps {
		step()
		got := walkOrdinals(t, r)
		if len(got) != wantLen[i] {
			t.Fatalf("step %d: %d series, want %d", i, len(got), wantLen[i])
		}
		for key, ord := range prev {
			if got[key] != ord {
				t.Fatalf("step %d: %s moved from ordinal %d to %d", i, key, ord, got[key])
			}
		}
		prev = got
	}
	// A histogram child's series are one consecutive run in walk order.
	if base := prev[`m_seconds_bucket{function="b",le="1"} 0`+"\n"]; prev[`m_seconds_count{function="b"} 0`+"\n"] != base+4 {
		t.Fatalf("histogram child is not a run of 5 ordinals: %v", prev)
	}
}

// TestWalkWhileChildrenAreCreated scrapes and renders a registry while
// another goroutine creates the first child for new label values — the
// live scraper and GET /metrics against an orchestrator meeting a new
// function. Run under -race: at PR 13 the enumeration ranged over the
// family's child slice without the registry lock that appends to it.
func TestWalkWhileChildrenAreCreated(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "", "function", "f0").Inc()
	r.Histogram("lat_seconds", "", []float64{1, 2}, "function", "f0").Observe(1)
	const children = 2000
	created := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(created)
		for i := 1; i <= children; i++ {
			fn := "f" + strconv.Itoa(i)
			r.Counter("jobs_total", "", "function", fn).Inc()
			r.Histogram("lat_seconds", "", []float64{1, 2}, "function", fn).Observe(float64(i % 3))
			if i%500 == 0 {
				r.Gauge("g"+strconv.Itoa(i), "").Set(1)
			}
		}
	}()
	for _, read := range []func(){
		func() { r.Walk(func(int, float64, SeriesRef) {}) },
		func() { r.Snapshot("shard", "s0") },
		func() {
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
		},
	} {
		wg.Add(1)
		go func(read func()) {
			defer wg.Done()
			for {
				select {
				case <-created:
					return
				default:
					read()
				}
			}
		}(read)
	}
	wg.Wait()
	if got, want := len(walkOrdinals(t, r)), (children+1)*(1+5)+children/500; got != want {
		t.Fatalf("%d series after the race, want %d", got, want)
	}
}

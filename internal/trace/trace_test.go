package trace

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"microfaas/internal/chunklog"
)

// add files r on the worker it names, through the collector's handle for
// that worker, the way core's settle does.
func add(c *Collector, r Record) { c.Add(c.Worker(r.Worker), r) }

func rec(fn string, exec, ovh time.Duration, err string) Record {
	return Record{Function: fn, Exec: exec, Overhead: ovh, Err: err,
		Submitted: 0, Started: time.Second, Finished: time.Second + exec + ovh}
}

func TestByFunctionMeans(t *testing.T) {
	c := NewCollector()
	add(c, rec("A", 100*time.Millisecond, 10*time.Millisecond, ""))
	add(c, rec("A", 300*time.Millisecond, 30*time.Millisecond, ""))
	add(c, rec("B", time.Second, 0, ""))
	stats := c.ByFunction()
	if len(stats) != 2 || stats[0].Function != "A" || stats[1].Function != "B" {
		t.Fatalf("stats = %+v", stats)
	}
	a := stats[0]
	if a.Count != 2 || a.MeanExec != 200*time.Millisecond || a.MeanOverhead != 20*time.Millisecond {
		t.Fatalf("A stats = %+v", a)
	}
	if a.MeanTotal != 220*time.Millisecond {
		t.Fatalf("A mean total = %v", a.MeanTotal)
	}
}

func TestErrorsExcludedFromMeans(t *testing.T) {
	c := NewCollector()
	add(c, rec("A", 100*time.Millisecond, 0, ""))
	add(c, rec("A", time.Hour, 0, "boom"))
	stats := c.ByFunction()
	if stats[0].Errors != 1 || stats[0].Count != 2 {
		t.Fatalf("stats = %+v", stats[0])
	}
	if stats[0].MeanExec != 100*time.Millisecond {
		t.Fatalf("failed invocation polluted the mean: %v", stats[0].MeanExec)
	}
	if c.ErrorCount() != 1 {
		t.Fatalf("ErrorCount = %d", c.ErrorCount())
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{5, 1, 4, 2, 3}
	if got := Percentile(ds, 50); got != 3 {
		t.Fatalf("P50 = %v", got)
	}
	if got := Percentile(ds, 100); got != 5 {
		t.Fatalf("P100 = %v", got)
	}
	if got := Percentile(ds, 0); got != 1 {
		t.Fatalf("P0 = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty P50 = %v", got)
	}
	// Input must not be mutated.
	if ds[0] != 5 {
		t.Fatal("Percentile sorted its input in place")
	}
}

func TestPercentileRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Percentile([]time.Duration{1}, 101)
}

// Property: the percentile is always an element of the input and is
// monotone in p.
func TestPercentileProperty(t *testing.T) {
	prop := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		ds := make([]time.Duration, len(raw))
		for i, v := range raw {
			ds[i] = time.Duration(v)
		}
		p := float64(pRaw % 101)
		got := Percentile(ds, p)
		found := false
		for _, d := range ds {
			if d == got {
				found = true
				break
			}
		}
		if !found {
			return false
		}
		sorted := append([]time.Duration(nil), ds...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return Percentile(ds, 0) == sorted[0] && Percentile(ds, 100) == sorted[len(sorted)-1]
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// referenceSummary is the loop every caller of Records() used to hand-roll
// — copy the tables, skip errors, sum, collect, count a window — kept here
// as what Summarize must equal.
func referenceSummary(lo, hi time.Duration, colls ...*Collector) (completed, errors int, meanLat, meanCycle time.Duration, lats []time.Duration, inWindow int) {
	var lat, cycle time.Duration
	for _, c := range colls {
		for _, r := range c.Records() {
			if r.Err != "" {
				errors++
				continue
			}
			completed++
			lat += r.Finished - r.Submitted
			cycle += r.Boot + r.Overhead + r.Exec
			lats = append(lats, r.Finished-r.Submitted)
			if r.Finished >= lo && r.Finished < hi {
				inWindow++
			}
		}
	}
	if completed > 0 {
		meanLat = lat / time.Duration(completed)
		meanCycle = cycle / time.Duration(completed)
	}
	return
}

func TestSummarizeMatchesCopyThenLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	colls := []*Collector{NewCollector(), NewCollector(), NewCollector()}
	for i := 0; i < 5000; i++ {
		r := Record{
			JobID:     int64(i),
			Submitted: time.Duration(rng.Intn(1000)) * time.Millisecond,
			Boot:      time.Duration(rng.Intn(2000)) * time.Millisecond,
			Overhead:  time.Duration(rng.Intn(300)) * time.Microsecond,
			Exec:      time.Duration(rng.Intn(5000)) * time.Microsecond,
		}
		r.Started = r.Submitted + time.Duration(rng.Intn(50))*time.Millisecond
		r.Finished = r.Started + r.Boot + r.Overhead + r.Exec
		if rng.Intn(10) == 0 {
			r.Err = "boom"
		}
		add(colls[rng.Intn(len(colls))], r)
	}
	// A record finishing exactly on either edge pins the half-open window.
	lo, hi := 1500*time.Millisecond, 2500*time.Millisecond
	add(colls[0], Record{Finished: lo})
	add(colls[1], Record{Finished: hi})

	completed, errors, meanLat, meanCycle, lats, inWindow := referenceSummary(lo, hi, colls...)
	sum := Summarize(colls...)
	if sum.Completed != completed || sum.Errors != errors {
		t.Fatalf("counts %d/%d, want %d/%d", sum.Completed, sum.Errors, completed, errors)
	}
	if sum.MeanLatency != meanLat || sum.MeanCycle != meanCycle {
		t.Fatalf("means %v/%v, want %v/%v", sum.MeanLatency, sum.MeanCycle, meanLat, meanCycle)
	}
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if got, want := sum.Percentile(p), Percentile(lats, p); got != want {
			t.Fatalf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := sum.CountFinished(lo, hi); got != inWindow {
		t.Fatalf("CountFinished = %d, want %d", got, inWindow)
	}
	if sum.CountFinished(lo, lo+1) == 0 || sum.CountFinished(hi, hi) != 0 {
		t.Fatal("the window is not half-open: lo must count, an empty window must not")
	}

	if empty := Summarize(); empty.Completed != 0 || empty.MeanLatency != 0 || empty.Percentile(99) != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
	if !reflect.DeepEqual(ByFunction(colls...), mergedByFunction(colls...)) {
		t.Fatal("ByFunction over several collectors differs from one merged collector")
	}
}

// mergedByFunction is the old sharded /stats path: copy every record into
// one collector, then group.
func mergedByFunction(colls ...*Collector) []FunctionStats {
	merged := NewCollector()
	for _, c := range colls {
		for _, r := range c.Records() {
			add(merged, r)
		}
	}
	return merged.ByFunction()
}

// TestWindowCollectorBoundsTheTableNotTheCounts feeds a windowed
// collector well past its window: the table stays within window + one
// chunk and keeps the newest records, while Len and ErrorCount — what a
// replay's "wait until n invocations are recorded" loop polls — keep
// counting.
func TestWindowCollectorBoundsTheTableNotTheCounts(t *testing.T) {
	const window = 2 * chunklog.ChunkSize
	const n = window + 3*chunklog.ChunkSize
	c := NewWindowCollector(window)
	errs := 0
	for i := 0; i < n; i++ {
		r := Record{JobID: int64(i)}
		if i%7 == 0 {
			r.Err = "boom"
			errs++
		}
		add(c, r)
		if i%97 != 0 && i != n-1 {
			continue // a copy of the table per add is the slow part
		}
		if got := len(c.Records()); got > window+chunklog.ChunkSize || (i >= window && got < window) {
			t.Fatalf("after %d adds the table holds %d records, want within [%d, %d]", i+1, got, window, window+chunklog.ChunkSize)
		}
	}
	if c.Len() != n || c.ErrorCount() != errs {
		t.Fatalf("lifetime Len/ErrorCount = %d/%d, want %d/%d", c.Len(), c.ErrorCount(), n, errs)
	}
	recs := c.Records()
	if last := recs[len(recs)-1].JobID; last != n-1 {
		t.Fatalf("newest retained record is job %d, want %d", last, n-1)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].JobID != recs[i-1].JobID+1 {
			t.Fatalf("retained window has a hole between jobs %d and %d", recs[i-1].JobID, recs[i].JobID)
		}
	}
	if sum := Summarize(c); sum.Completed+sum.Errors != len(recs) {
		t.Fatalf("Summarize saw %d records, the table holds %d", sum.Completed+sum.Errors, len(recs))
	}

	full := NewCollector()
	for i := 0; i < n; i++ {
		add(full, Record{JobID: int64(i)})
	}
	if got := len(full.Records()); got != n {
		t.Fatalf("an unwindowed collector dropped records: %d of %d", got, n)
	}
}

func TestWriteCSV(t *testing.T) {
	c := NewCollector()
	add(c, Record{JobID: 7, Function: "CascSHA", Worker: "sbc-3",
		Boot: 1510 * time.Millisecond, Exec: 2 * time.Second, Err: ""})
	var sb strings.Builder
	if err := c.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "job_id,") {
		t.Fatalf("missing header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "CascSHA") || !strings.Contains(lines[1], "1510.000") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestCollectorConcurrentAdd(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				add(c, rec("A", time.Millisecond, 0, ""))
			}
		}()
	}
	wg.Wait()
	if c.Len() != 800 {
		t.Fatalf("Len = %d, want 800", c.Len())
	}
}

func TestRecordsReturnsCopy(t *testing.T) {
	c := NewCollector()
	add(c, rec("A", time.Millisecond, 0, ""))
	rs := c.Records()
	rs[0].Function = "mutated"
	if c.Records()[0].Function != "A" {
		t.Fatal("Records leaked internal storage")
	}
}

// TestPercentileDegenerateInputs pins the documented edge behavior: an
// empty slice reads 0 at every p, and a single-element slice reads that
// element at every p (including p=0, which rounds up to rank 1).
func TestPercentileDegenerateInputs(t *testing.T) {
	cases := []struct {
		name string
		ds   []time.Duration
		p    float64
		want time.Duration
	}{
		{"empty p0", nil, 0, 0},
		{"empty p50", nil, 50, 0},
		{"empty p100", nil, 100, 0},
		{"empty non-nil p99", []time.Duration{}, 99, 0},
		{"single p0", []time.Duration{7 * time.Millisecond}, 0, 7 * time.Millisecond},
		{"single p50", []time.Duration{7 * time.Millisecond}, 50, 7 * time.Millisecond},
		{"single p99.9", []time.Duration{7 * time.Millisecond}, 99.9, 7 * time.Millisecond},
		{"single p100", []time.Duration{7 * time.Millisecond}, 100, 7 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := Percentile(tc.ds, tc.p); got != tc.want {
			t.Errorf("%s: Percentile = %v, want %v", tc.name, got, tc.want)
		}
	}
}

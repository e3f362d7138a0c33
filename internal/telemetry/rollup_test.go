package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// rollupKey names the group a worker-labelled series sums into: its name
// and its labels without the worker.
func rollupKey(name string, labels map[string]string) string {
	rest := map[string]string{}
	for k, v := range labels {
		if k != WorkerLabel {
			rest[k] = v
		}
	}
	return exposeSamples(Samples{{Name: name, Labels: rest}})
}

// checkRollups holds r to the rollup contract by scanning it with Walk.
// With no worker asked, WalkRollups yields every series Walk yields that
// has no worker label, under the same ordinal and value; no member; and
// one rollup per group of members, whose value is the members' sum and
// whose ordinal is the one before its first member's.
func checkRollups(t *testing.T, r *Registry, where string) {
	t.Helper()
	plain := map[int]float64{}
	sums := map[string]float64{}
	first := map[string]int{}
	r.Walk(func(ord int, v float64, ref SeriesRef) {
		name, labels := ref.Describe("", "")
		if _, ok := labels[WorkerLabel]; !ok {
			plain[ord] = v
			return
		}
		key := rollupKey(name, labels)
		if _, ok := first[key]; !ok {
			first[key] = ord
		}
		sums[key] += v
	})
	rollups := 0
	r.WalkRollups(nil, func(ord int, v float64, ref SeriesRef) {
		name, labels := ref.Describe("", "")
		if w, ok := labels[WorkerLabel]; ok {
			t.Fatalf("%s: %s of worker %s walked with no worker asked", where, name, w)
		}
		if ref.f.worker < 0 {
			if want, ok := plain[ord]; !ok || v != want {
				t.Fatalf("%s: %s at ordinal %d reads %v; Walk has %v (found: %v)", where, name, ord, v, want, ok)
			}
			delete(plain, ord)
			return
		}
		key := rollupKey(name, labels)
		if v != sums[key] || ord != first[key]-1 {
			t.Fatalf("%s: rollup %s reads %v at ordinal %d; its members sum to %v, the first at ordinal %d",
				where, key, v, ord, sums[key], first[key])
		}
		rollups++
	})
	if len(plain) != 0 || rollups != len(sums) {
		t.Fatalf("%s: %d series without a worker not walked; %d rollups for %d groups", where, len(plain), rollups, len(sums))
	}
}

// TestRollupMatchesScan applies random child creation, Inc, Add and Set
// to worker-labelled families — the worker first or last among the
// labels, families created late that sort before or after the rest — and
// to plain ones, over one registry and a second that joins midway, and
// after every step holds each registry's rollups to the sums a full Walk
// scans.
func TestRollupMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		regs := []*Registry{NewRegistry()}
		gauges := []string{"m_busy"}
		for step := 0; step < 300; step++ {
			if step == 100 {
				regs = append(regs, NewRegistry())
			}
			r := regs[rng.Intn(len(regs))]
			w := fmt.Sprintf("sbc-%02d", rng.Intn(10))
			switch rng.Intn(7) {
			case 0:
				r.Counter("m_attempts_total", "", WorkerLabel, w, "result", []string{"ok", "error"}[rng.Intn(2)]).Inc()
			case 1:
				r.Counter("m_attempts_total", "", WorkerLabel, w, "result", "timeout").Add(float64(rng.Intn(4)))
			case 2:
				r.Gauge(gauges[rng.Intn(len(gauges))], "", WorkerLabel, w).Set(float64(rng.Intn(2)))
			case 3:
				r.Gauge("m_depth", "", "kind", []string{"a", "b"}[rng.Intn(2)], WorkerLabel, w).Add(float64(rng.Intn(7) - 3))
			case 4:
				name := fmt.Sprintf("%c_late_%d", 'a'+rune(rng.Intn(26)), step)
				gauges = append(gauges, name)
				r.Gauge(name, "", WorkerLabel, w).Set(float64(rng.Intn(5)))
			case 5:
				r.Counter("m_jobs_total", "", "function", w).Inc()
			default:
				r.Histogram("m_seconds", "", []float64{1, 2}, "function", w).Observe(rng.Float64() * 3)
			}
			for i, r := range regs {
				checkRollups(t, r, fmt.Sprintf("seed %d step %d registry %d", seed, step, i))
			}
		}
	}
}

// TestRollupMatchesScanUnderConcurrentWrites creates, sets, adds and
// increments one registry's worker children from several goroutines while
// another walks the rollups with one worker asked; once the writers stop,
// every rollup equals its members' sum. Run it under -race.
func TestRollupMatchesScanUnderConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	walked := make(chan struct{})
	go func() {
		defer close(walked)
		asked := map[string]struct{}{"sbc-03": {}}
		for {
			select {
			case <-stop:
				return
			default:
				r.WalkRollups(asked, func(int, float64, SeriesRef) {})
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				w := fmt.Sprintf("sbc-%02d", rng.Intn(8))
				busy := r.Gauge("m_busy", "", WorkerLabel, w)
				switch rng.Intn(3) {
				case 0:
					busy.Set(float64(rng.Intn(2)))
				case 1:
					busy.Add(float64(rng.Intn(3) - 1))
				default:
					r.Counter("m_attempts_total", "", WorkerLabel, w).Inc()
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(stop)
	<-walked
	checkRollups(t, r, "after the writers stopped")
}

// TestRollupWalkIsFlatInBoards builds a shard's worker families — the
// orchestrator's and the boards', 13 series a board — at 16 and at 1,024
// boards: with no worker asked, WalkRollups yields as many series at both,
// and asking for one board adds that board's 13 at both.
func TestRollupWalkIsFlatInBoards(t *testing.T) {
	count := func(boards int, asked map[string]struct{}) int {
		r := NewRegistry()
		r.Counter("jobs_total", "", "function", "MatMul").Inc()
		for b := 0; b < boards; b++ {
			w := fmt.Sprintf("sbc-%04d", b)
			r.Gauge("queue_depth", "", WorkerLabel, w)
			r.Gauge("busy", "", WorkerLabel, w).Set(1)
			for _, v := range []string{"ok", "error", "timeout"} {
				r.Counter("attempts_total", "", WorkerLabel, w, "result", v).Inc()
			}
			for _, v := range []string{"open", "closed"} {
				r.Counter("breaker_total", "", WorkerLabel, w, "to", v)
			}
			for _, v := range []string{"cold", "warm", "crash", "hang", "error", "slow"} {
				r.Counter("board_total", "", WorkerLabel, w, "kind", v)
			}
		}
		n := 0
		r.WalkRollups(asked, func(int, float64, SeriesRef) { n++ })
		return n
	}
	if small, large := count(16, nil), count(1024, nil); small != 1+13 || large != small {
		t.Fatalf("with no worker asked the walk yields %d series at 16 boards and %d at 1,024, want %d at both", small, large, 1+13)
	}
	one := map[string]struct{}{"sbc-0007": {}}
	if small, large := count(16, one), count(1024, one); small != 1+26 || large != small {
		t.Fatalf("with one board asked the walk yields %d series at 16 boards and %d at 1,024, want %d at both", small, large, 1+26)
	}
}

// TestWorkerValuesMustBeIntegers pins the contract that keeps rollups
// exact: a non-integer, NaN or infinite Set or Add on a worker-labelled
// child panics and changes nothing, and so does registering a
// worker-labelled histogram. A child without a worker label takes any
// value.
func TestWorkerValuesMustBeIntegers(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("busy", "", WorkerLabel, "sbc-000")
	c := r.Counter("attempts_total", "", WorkerLabel, "sbc-000")
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	for _, v := range []float64{0.5, math.NaN(), math.Inf(1)} {
		mustPanic(fmt.Sprintf("Gauge.Set(%v)", v), func() { g.Set(v) })
		mustPanic(fmt.Sprintf("Gauge.Add(%v)", v), func() { g.Add(v) })
		mustPanic(fmt.Sprintf("Counter.Add(%v)", v), func() { c.Add(v) })
	}
	mustPanic("a worker-labelled histogram", func() {
		r.Histogram("lat_seconds", "", []float64{1}, "function", "MatMul", WorkerLabel, "sbc-000")
	})
	if _, ok := r.families["lat_seconds"]; ok {
		t.Error("the refused histogram family was registered")
	}
	if g.Value() != 0 || c.Value() != 0 {
		t.Errorf("refused writes moved the gauge to %v and the counter to %v", g.Value(), c.Value())
	}
	g.Set(3)
	g.Add(-1)
	c.Add(2)
	c.Inc()
	r.Gauge("load", "", "function", "MatMul").Set(0.5)
	checkRollups(t, r, "after the refused writes")
}

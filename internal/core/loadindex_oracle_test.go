package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"microfaas/internal/sim"
)

// referenceLeastLoaded is AssignLeastLoaded's pick as it stood before the
// load index — pickWorkerLocked's scan over assignableLocked's list, moved
// here verbatim. It is the oracle the index is held to.
func referenceLeastLoaded(ws []*workerSlot) *workerSlot {
	// Ties break by registration order regardless of free-list order.
	var best *workerSlot
	bestLoad := int(^uint(0) >> 1)
	for _, s := range ws {
		load := s.qlen()
		if s.busy {
			load++
		}
		if load < bestLoad || (load == bestLoad && s.idx < best.idx) {
			best, bestLoad = s, load
		}
	}
	return best
}

// checkLoadIndex asserts everything the index promises, between any two
// orchestrator operations: heap order, loadPos agreeing with the slice,
// membership equal to the attached slots, the running queued total equal
// to the sum it replaced, and the policy's pick equal to the scan's.
func checkLoadIndex(t testing.TB, o *Orchestrator, after string) {
	t.Helper()
	total := o.Queued()
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.load) != len(o.slots) {
		t.Fatalf("after %s: index holds %d slots, %d attached", after, len(o.load), len(o.slots))
	}
	for i, s := range o.load {
		if s.loadPos != i {
			t.Fatalf("after %s: load[%d] is %s with loadPos %d", after, i, s.id, s.loadPos)
		}
		if i > 0 && loadLess(s, o.load[(i-1)/2]) {
			p := o.load[(i-1)/2]
			t.Fatalf("after %s: heap order broken: %s (ejected %v, load %d) under %s (ejected %v, load %d)",
				after, s.id, s.eligPos < 0, s.load(), p.id, p.eligPos < 0, p.load())
		}
	}
	queued := 0
	for _, s := range o.slots {
		if s.detached || s.loadPos < 0 || s.loadPos >= len(o.load) || o.load[s.loadPos] != s {
			t.Fatalf("after %s: attached slot %s (detached %v) has loadPos %d", after, s.id, s.detached, s.loadPos)
		}
		if s.queued != s.qlen() {
			t.Fatalf("after %s: %s published depth %d, queue holds %d", after, s.id, s.queued, s.qlen())
		}
		queued += s.qlen()
	}
	if total != queued {
		t.Fatalf("after %s: Queued() = %d, queues sum to %d", after, total, queued)
	}
	want := referenceLeastLoaded(o.assignableLocked())
	if got := o.pickWorkerLocked(""); got != want {
		t.Fatalf("after %s: index picks %s (load %d), scan picks %s (load %d)",
			after, got.id, got.load(), want.id, want.load())
	}
}

// loadTimeout is the per-attempt deadline of a scheduled run; a scripted
// worker's late result arrives after it, a normal one well inside.
const loadTimeout = 30 * time.Millisecond

// scriptWorker settles each attempt the way a hash of (salt, job, attempt)
// says — mostly success, sometimes a fault, a result that arrives after
// the deadline, or a wedge that never reports — so a byte string fully
// determines a run and every outcome path gets exercised.
type scriptWorker struct {
	id     string
	engine *sim.Engine
	salt   uint64
}

func (w *scriptWorker) ID() string { return w.id }

func (w *scriptWorker) RunJob(job Job, done func(Result)) {
	h := (w.salt ^ uint64(job.ID)<<8 ^ uint64(job.Attempt)) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	service := time.Duration(1+h%20) * time.Millisecond
	res := Result{Job: job, WorkerID: w.id, StartedAt: w.engine.Now()}
	switch (h >> 8) % 16 {
	case 0:
		return // wedged for good: only the deadline settles it
	case 1:
		service = loadTimeout + 15*time.Millisecond
	case 2, 3, 4:
		res.Err = "scripted fault"
	}
	w.engine.Schedule(service, func() {
		res.FinishedAt = w.engine.Now()
		done(res)
	})
}

// runLoadSchedule interprets data as an orchestrator configuration (three
// bytes: fleet size 1–64, breaker/backoff/attempt switches, outcome salt)
// followed by a schedule of operations, and checks the index after every
// one of them.
func runLoadSchedule(t testing.TB, data []byte) {
	if len(data) < 3 {
		return
	}
	n, flags, salt := 1+int(data[0])%64, data[1], uint64(data[2])
	data = data[3:]
	e := sim.NewEngine(3)
	newWorker := func(id string) Worker { return &scriptWorker{id: id, engine: e, salt: salt} }
	cfg := Config{
		Runtime:       SimRuntime{Engine: e},
		Policy:        AssignLeastLoaded,
		Seed:          int64(salt),
		AttemptPolicy: AttemptPolicy{JobTimeout: loadTimeout, MaxAttempts: 1 + int(flags>>2)%3},
	}
	for i := 0; i < n; i++ {
		cfg.Workers = append(cfg.Workers, newWorker(fmt.Sprintf("w%02d", i)))
	}
	if flags&1 != 0 {
		cfg.BreakerThreshold = 2
		cfg.BreakerProbe = 40 * time.Millisecond
	}
	if flags&2 != 0 {
		cfg.RetryBase = 4 * time.Millisecond
	}
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkLoadIndex(t, o, "New")

	fired := map[int64]int{}
	cb := func(r Result) { fired[r.Job.ID]++ }
	resubmit := func(stolen []Stolen) {
		for _, st := range stolen {
			o.SubmitJob(st.Job, st.Callback) //nolint:errcheck // ids are set; a draining refusal drops the job
			checkLoadIndex(t, o, "SubmitJob")
		}
	}
	added := 0
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%16, int(data[i+1])
		name := ""
		switch {
		case op < 5:
			name = "SubmitAsync"
			o.SubmitAsync("f", nil, cb)
		case op == 5:
			name = "SubmitTo"
			ids := o.Workers()
			o.SubmitTo(ids[arg%len(ids)], "f", nil) //nolint:errcheck // refused while draining
		case op == 10:
			name = "TakeQueued"
			stolen := o.TakeQueued(1 + arg%8)
			checkLoadIndex(t, o, name)
			resubmit(stolen)
		case op == 11:
			name = "TakeAll"
			stolen := o.TakeAll()
			checkLoadIndex(t, o, name)
			resubmit(stolen)
		case op == 12 && added < 64:
			name = "AddWorker"
			added++
			if err := o.AddWorker(newWorker(fmt.Sprintf("a%02d", added))); err != nil {
				t.Fatal(err)
			}
		case op == 13:
			name = "RemoveWorker"
			ids := o.Workers()
			o.RemoveWorker(ids[arg%len(ids)], nil) //nolint:errcheck // the last worker refuses
		case op == 15 && arg >= 250:
			name = "Drain"
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			o.Drain(ctx)
		default:
			name = "Step"
			e.Step()
		}
		checkLoadIndex(t, o, name)
	}
	for steps := 0; e.Step(); steps++ {
		checkLoadIndex(t, o, "Step")
		if steps > 1<<16 {
			t.Fatal("schedule did not run out")
		}
	}
	for id, n := range fired {
		if n != 1 {
			t.Fatalf("job %d's callback fired %d times", id, n)
		}
	}
}

// TestLoadIndexMatchesScan drives seeded random schedules — submits,
// settles of every outcome, breaker trips and parole, backoff retries,
// steals, membership changes, drain — over small and rack-sized fleets
// with the breaker off and on.
func TestLoadIndexMatchesScan(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 5, 8, 17, 64} {
		for flags := 0; flags < 4; flags++ {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed*1000 + int64(workers)))
				data := make([]byte, 3+2*600)
				rng.Read(data)
				data[0] = byte(workers - 1)
				data[1] = byte(flags) | byte(rng.Intn(3))<<2
				runLoadSchedule(t, data)
			}
		}
	}
}

// FuzzLoadIndex feeds the same checker from raw bytes.
func FuzzLoadIndex(f *testing.F) {
	f.Add([]byte{7, 0x05, 1, 0, 0, 0, 0, 0, 0, 6, 0, 6, 0, 13, 1, 6, 0})
	f.Add([]byte{1, 0x07, 9, 0, 0, 0, 0, 0, 0, 13, 0, 6, 0, 6, 0, 6, 0})
	f.Add([]byte{63, 0x0b, 3, 0, 0, 5, 9, 10, 3, 11, 0, 12, 0, 15, 255, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runLoadSchedule(t, data) })
}

package core

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"microfaas/internal/sim"
)

// referenceLeastLoaded is AssignLeastLoaded's pick as it stood before the
// load index — pickWorkerLocked's scan over assignableLocked's list, moved
// here with registration order read from rank (the registration index it
// compared is gone). It is the oracle the index is held to.
func referenceLeastLoaded(ws []*workerSlot) *workerSlot {
	// Ties break by registration order regardless of free-list order.
	var best *workerSlot
	bestLoad := int(^uint(0) >> 1)
	for _, s := range ws {
		load := s.qlen()
		if s.busy {
			load++
		}
		if load < bestLoad || (load == bestLoad && s.rank < best.rank) {
			best, bestLoad = s, load
		}
	}
	return best
}

// referenceMost is the take's victim by scan over the slots in rank
// order: the lowest rank at the highest load, in either breaker class, if
// that load is at least 2; -1 otherwise.
func referenceMost(slots []*workerSlot) int {
	best, bestLoad := -1, 1
	for _, s := range slots {
		if load := s.load(); load > bestLoad {
			best, bestLoad = s.rank, load
		}
	}
	return best
}

// checkLoadIndex asserts everything the index promises, between any two
// orchestrator operations: ranks agreeing with the slot list, each attached
// slot filed once, at its current (class, load), and no slot in gone (the
// detached ones) filed at all; every level's set holding exactly its size's
// bits under a true summary, each class's count and lowest level and the
// highest level right, and every set either a level's or free and empty;
// the running queued total equal to the sum it replaced, and the policy's
// pick and the take's victim (-1 when nothing is queued) equal to the
// scan's. Under any other policy there is no index at all.
func checkLoadIndex(t testing.TB, o *Orchestrator, gone []*workerSlot, after string) {
	t.Helper()
	total := o.Queued()
	o.mu.Lock()
	defer o.mu.Unlock()
	queued := 0
	for r, s := range o.slots {
		if s.rank != r {
			t.Fatalf("after %s: slots[%d] is %s with rank %d", after, r, s.id, s.rank)
		}
		if int(s.queued) != s.qlen() {
			t.Fatalf("after %s: %s published depth %d, queue holds %d", after, s.id, s.queued, s.qlen())
		}
		queued += s.qlen()
	}
	if total != queued {
		t.Fatalf("after %s: Queued() = %d, queues sum to %d", after, total, queued)
	}
	for _, s := range gone {
		if s.lvl != -1 {
			t.Fatalf("after %s: detached %s is still filed at %d", after, s.id, s.lvl)
		}
	}
	ix := o.load
	if o.policy != AssignLeastLoaded {
		if ix != nil {
			t.Fatalf("after %s: policy %v built a load index", after, o.policy)
		}
		for _, s := range o.slots {
			if s.lvl != -1 {
				t.Fatalf("after %s: %s filed at %d with no index", after, s.id, s.lvl)
			}
		}
		return
	}
	var count [2]int
	highest := int32(0)
	for r, s := range o.slots {
		lvl := levelOf(s)
		if s.lvl != lvl {
			t.Fatalf("after %s: %s filed at %d, belongs at %d", after, s.id, s.lvl, lvl)
		}
		k := ix.level[lvl] - 1
		if k < 0 || ix.set(k)[r>>6]&(1<<(r&63)) == 0 {
			t.Fatalf("after %s: %s's bit is not set under level %d", after, s.id, lvl)
		}
		count[lvl&1]++
		highest = max(highest, lvl)
	}
	if len(o.slots) > 0 && ix.max != highest {
		t.Fatalf("after %s: the highest level is %d, index says %d", after, highest, ix.max)
	}
	seen := make([]bool, len(ix.size))
	bitsSet := 0
	for c := range ix.count {
		lowest := int32(-1)
		for lvl := int32(c); int(lvl) < len(ix.level); lvl += 2 {
			k1 := ix.level[lvl]
			if k1 == 0 {
				continue
			}
			k := k1 - 1
			if seen[k] {
				t.Fatalf("after %s: set %d serves two levels", after, k)
			}
			seen[k] = true
			n := setBits(t, ix, k, after)
			if n == 0 || n != int(ix.size[k]) {
				t.Fatalf("after %s: level %d holds %d bits, size %d", after, lvl, n, ix.size[k])
			}
			bitsSet += n
			if lowest < 0 {
				lowest = lvl
			}
		}
		if ix.count[c] != count[c] {
			t.Fatalf("after %s: class %d counts %d slots, %d attached", after, c, ix.count[c], count[c])
		}
		if count[c] > 0 && ix.min[c] != lowest {
			t.Fatalf("after %s: class %d's lowest is %d, index says %d", after, c, lowest, ix.min[c])
		}
	}
	if bitsSet != len(o.slots) {
		t.Fatalf("after %s: %d bits filed for %d attached slots", after, bitsSet, len(o.slots))
	}
	for _, k := range ix.free {
		if seen[k] {
			t.Fatalf("after %s: set %d is both free and a level's", after, k)
		}
		seen[k] = true
		if n := setBits(t, ix, k, after); n != 0 || ix.size[k] != 0 {
			t.Fatalf("after %s: free set %d holds %d bits, size %d", after, k, n, ix.size[k])
		}
	}
	for k, ok := range seen {
		if !ok {
			t.Fatalf("after %s: set %d is neither a level's nor free", after, k)
		}
	}
	victim := ix.most()
	if want := referenceMost(o.slots); victim != want {
		t.Fatalf("after %s: the take's victim is rank %d, scan says %d", after, victim, want)
	}
	if queued == 0 && victim != -1 {
		t.Fatalf("after %s: nothing is queued, yet the take's victim is rank %d", after, victim)
	}
	want := referenceLeastLoaded(o.assignableLocked())
	if got := o.pickWorkerLocked(""); got != want {
		t.Fatalf("after %s: index picks %s (load %d), scan picks %s (load %d)",
			after, got.id, got.load(), want.id, want.load())
	}
}

// setBits counts set k's bits, checking each summary bit says whether its
// word is non-zero.
func setBits(t testing.TB, ix *loadIndex, k int32, after string) int {
	t.Helper()
	set, n := ix.set(k), 0
	for w, word := range set[:ix.words] {
		if sum := set[ix.words+w>>6]>>(w&63)&1 == 1; sum != (word != 0) {
			t.Fatalf("after %s: set %d word %d is %#x, summary bit %v", after, k, w, word, sum)
		}
		n += bits.OnesCount64(word)
	}
	return n
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

// runLoadSchedule interprets data as an orchestrator configuration (two
// bytes: breaker/backoff/attempt switches, outcome salt) followed by a
// schedule of operations over n workers under policy, and checks the index
// after every one of them. No callback fires twice, and unless the schedule
// drains, every job submitted with one has settled once or is still held.
func runLoadSchedule(t testing.TB, policy AssignPolicy, n int, data []byte) {
	if len(data) < 2 {
		return
	}
	flags, salt := data[0], uint64(data[1])
	data = data[2:]
	e := sim.NewEngine(3)
	newWorker := func(id string) Worker { return &scriptWorker{id: id, engine: e, salt: salt} }
	cfg := Config{
		Runtime:       SimRuntime{Engine: e},
		Policy:        policy,
		Seed:          int64(salt),
		AttemptPolicy: AttemptPolicy{JobTimeout: loadTimeout, MaxAttempts: 1 + int(flags>>2)%3},
	}
	for i := 0; i < n; i++ {
		cfg.Workers = append(cfg.Workers, newWorker(fmt.Sprintf("w%04d", i)))
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
	var gone []*workerSlot
	checkLoadIndex(t, o, gone, "New")

	// at spreads a byte over the whole fleet, so ranks past 255 are hit too.
	at := func(ids []string, arg int) string { return ids[arg*len(ids)>>8] }
	fired := map[int64]int{}
	var submitted []int64
	drained := false
	cb := func(r Result) { fired[r.Job.ID]++ }
	resubmit := func(stolen []Stolen) {
		for _, st := range stolen {
			o.SubmitJob(st.Job, st.Callback) //nolint:errcheck // ids are set; a draining refusal drops the job
			checkLoadIndex(t, o, gone, "SubmitJob")
		}
	}
	added := 0
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%16, int(data[i+1])
		name := ""
		switch {
		case op < 5:
			name = "SubmitAsync"
			if id := o.SubmitAsync("f", nil, cb); id != 0 {
				submitted = append(submitted, id)
			}
		case op == 5:
			name = "SubmitTo"
			o.SubmitTo(at(o.Workers(), arg), "f", nil) //nolint:errcheck // refused while draining
		case op == 10:
			name = "TakeQueued"
			stolen := o.TakeQueued(1 + arg%8)
			checkLoadIndex(t, o, gone, name)
			resubmit(stolen)
		case op == 11:
			name = "TakeAll"
			stolen := o.TakeAll()
			checkLoadIndex(t, o, gone, name)
			resubmit(stolen)
		case op == 12 && added < 128:
			name = "AddWorker"
			added++
			if err := o.AddWorker(newWorker(fmt.Sprintf("a%03d", added))); err != nil {
				t.Fatal(err)
			}
		case op == 13:
			name = "RemoveWorker"
			id := at(o.Workers(), arg)
			o.mu.Lock()
			s := o.byID[id]
			o.mu.Unlock()
			if o.RemoveWorker(id, nil) == nil { // the last worker refuses
				gone = append(gone, s)
			}
		case op == 15 && arg >= 250:
			name = "Drain"
			drained = true
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			o.Drain(ctx)
		default:
			name = "Step"
			e.Step()
		}
		checkLoadIndex(t, o, gone, name)
	}
	for steps := 0; e.Step(); steps++ {
		checkLoadIndex(t, o, gone, "Step")
		if steps > 1<<16 {
			t.Fatal("schedule did not run out")
		}
	}
	for id, n := range fired {
		if n != 1 {
			t.Fatalf("job %d's callback fired %d times", id, n)
		}
	}
	if drained {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, id := range submitted {
		// A job queued behind a wedged worker waits for its late reply,
		// which never comes: it is held, not lost.
		if _, held := o.callbacks[id]; held == (fired[id] == 1) {
			t.Fatalf("job %d settled %d times, held %v: want settled once or held", id, fired[id], held)
		}
	}
}

// loadSchedule is a seeded random schedule of ops operations for n workers.
// churn, when set, turns every fifth operation into an AddWorker or a
// RemoveWorker, so registrations run on past 64 and ranks close up over
// holes throughout the run.
func loadSchedule(seed int64, n, flags, ops int, churn bool) []byte {
	rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
	data := make([]byte, 2+2*ops)
	rng.Read(data)
	data[0] = byte(flags) | byte(rng.Intn(3))<<2
	if churn {
		for i := 2; i+1 < len(data); i += 10 {
			data[i] = 12 + data[i]&1
		}
	}
	return data
}

// TestLoadIndexMatchesScan drives seeded random schedules — submits,
// settles of every outcome, breaker trips and parole, backoff retries,
// steals, membership changes, drain — over small and rack-sized fleets
// with the breaker off and on. The fleets past 64 slots span several
// bitset words and churn their membership.
func TestLoadIndexMatchesScan(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 5, 8, 17, 64, 65, 130, 1024} {
		for flags := 0; flags < 4; flags++ {
			for seed := int64(1); seed <= 4; seed++ {
				runLoadSchedule(t, AssignLeastLoaded, workers, loadSchedule(seed, workers, flags, 600, workers > 64))
			}
		}
	}
}

// TestOtherPoliciesBuildNoIndex runs the same schedules under every other
// policy: no index is built or filed, and every job still settles once.
func TestOtherPoliciesBuildNoIndex(t *testing.T) {
	for _, policy := range []AssignPolicy{AssignRandom, AssignRoundRobin, AssignEnergyAware} {
		for _, workers := range []int{1, 8, 65} {
			for flags := 0; flags < 4; flags++ {
				runLoadSchedule(t, policy, workers, loadSchedule(int64(flags)+1, workers, flags, 300, workers > 64))
			}
		}
	}
}

// fuzzFleet maps a byte to a fleet size: 1–64 for the low half (one bitset
// word), 65–1,081 in steps of 8 for the high half.
func fuzzFleet(b byte) int {
	if b < 128 {
		return 1 + int(b)%64
	}
	return 65 + 8*int(b-128)
}

// FuzzLoadIndex feeds the same checker from raw bytes: the first picks the
// fleet size (fuzzFleet), the rest is runLoadSchedule's input.
func FuzzLoadIndex(f *testing.F) {
	f.Add([]byte{7, 0x05, 1, 0, 0, 0, 0, 0, 0, 6, 0, 6, 0, 13, 1, 6, 0})
	f.Add([]byte{1, 0x07, 9, 0, 0, 0, 0, 0, 0, 13, 0, 6, 0, 6, 0, 6, 0})
	f.Add([]byte{63, 0x0b, 3, 0, 0, 5, 9, 10, 3, 11, 0, 12, 0, 15, 255, 6, 0})
	f.Add([]byte{136, 0x05, 4, 0, 0, 5, 255, 13, 3, 12, 0, 13, 200, 0, 0, 6, 0, 10, 2, 13, 255, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 {
			runLoadSchedule(t, AssignLeastLoaded, fuzzFleet(data[0]), data[1:])
		}
	})
}

// indexBytes is what the load index holds: its sets, their sizes, the free
// list and the level tables.
func indexBytes(ix *loadIndex) int {
	return 8*cap(ix.bits) + 4*(cap(ix.size)+cap(ix.free)+cap(ix.level))
}

// TestLoadIndexMemoryBounded drives the last slot of a 1,024-slot rack
// 10,000 jobs deep and drains it, twice. At the peak the index holds at
// most a quarter of the bytes that slot's queue holds in jobs, and the
// second cycle grows nothing in it: emptied levels hand their sets on.
func TestLoadIndexMemoryBounded(t *testing.T) {
	const depth = 10000
	lot, o := parkedRack(t, 1024)
	ids := o.Workers()
	last := ids[len(ids)-1]
	cycle := func() (peak int) {
		for i := 0; i < depth; i++ {
			if _, err := o.SubmitTo(last, "f", nil); err != nil {
				t.Fatal(err)
			}
		}
		if s := o.byID[last]; s.lvl != depth<<1 {
			t.Fatalf("the deep slot is filed at %d, want load %d", s.lvl, depth)
		}
		peak = indexBytes(o.load)
		for ; lot.head < len(lot.runs); lot.head++ {
			run := lot.runs[lot.head]
			lot.runs[lot.head] = parkedRun{}
			run.done(Result{Job: run.job, WorkerID: run.w.id})
		}
		lot.runs, lot.head = lot.runs[:0], 0
		checkLoadIndex(t, o, nil, "drain")
		return peak
	}
	peak := cycle()
	jobBytes := depth * int(unsafe.Sizeof(Job{}))
	t.Logf("index at the peak: %d B; the queue's jobs: %d B", peak, jobBytes)
	if peak > jobBytes/4 {
		t.Fatalf("index holds %d B at the peak, over a quarter of the queue's %d B of jobs", peak, jobBytes)
	}
	before, sets := indexBytes(o.load), len(o.load.size)
	if again := cycle(); again != peak || indexBytes(o.load) != before || len(o.load.size) != sets {
		t.Fatalf("second cycle grew the index: peak %d → %d B, after %d → %d B, sets %d → %d",
			peak, again, before, indexBytes(o.load), sets, len(o.load.size))
	}
}

package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"microfaas/internal/sim"
)

// checkBacklog asserts everything late binding promises, between any two
// orchestrator operations: ranks agreeing with the slot list; Queued()
// equal to the worker queues plus the backlog and the waiting retries;
// each free stack holding exactly the free, attached slots of its class,
// once each, at their recorded positions, and no slot in gone (the
// detached ones) on any; no board the policy could pick free while a job
// it may run waits (idleBesideBacklogLocked); and every waiting retry a
// retry with the board it failed on. Under any other policy there are no
// free stacks, no backlog and no waiting retries at all.
func checkBacklog(t testing.TB, o *Orchestrator, gone []*workerSlot, after string) {
	t.Helper()
	total := o.Queued()
	o.mu.Lock()
	defer o.mu.Unlock()
	queued := o.backlog.qlen() + len(o.retries)
	free := 0
	for r, s := range o.slots {
		if s.rank != r {
			t.Fatalf("after %s: slots[%d] is %s with rank %d", after, r, s.id, s.rank)
		}
		if int(s.queued) != s.qlen() {
			t.Fatalf("after %s: %s published depth %d, queue holds %d", after, s.id, s.queued, s.qlen())
		}
		queued += s.qlen()
		if !s.busy && s.qlen() == 0 {
			free++
		}
	}
	if total != queued {
		t.Fatalf("after %s: Queued() = %d, queues, backlog and retries sum to %d", after, total, queued)
	}
	for _, s := range gone {
		if s.freePos != -1 {
			t.Fatalf("after %s: detached %s is still on a free stack at %d", after, s.id, s.freePos)
		}
	}
	if o.policy != AssignLeastLoaded {
		if len(o.free[0])+len(o.free[1])+o.backlog.qlen()+len(o.retries) != 0 {
			t.Fatalf("after %s: policy %v keeps free stacks (%d, %d), a backlog (%d) or waiting retries (%d)",
				after, o.policy, len(o.free[0]), len(o.free[1]), o.backlog.qlen(), len(o.retries))
		}
		for _, s := range o.slots {
			if s.freePos != -1 {
				t.Fatalf("after %s: %s filed free at %d with no stacks", after, s.id, s.freePos)
			}
		}
		return
	}
	for c, st := range o.free {
		for i, s := range st {
			if int(s.freePos) != i || s.class() != c || s.busy || s.qlen() > 0 || o.byID[s.id] != s {
				t.Fatalf("after %s: free stack %d holds %s at %d (position %d, class %d, busy %v, queued %d, attached %v)",
					after, c, s.id, i, s.freePos, s.class(), s.busy, s.qlen(), o.byID[s.id] == s)
			}
		}
	}
	if n := len(o.free[0]) + len(o.free[1]); n != free {
		t.Fatalf("after %s: the free stacks hold %d boards, %d attached boards are free", after, n, free)
	}
	if id := idleBesideBacklogLocked(o); id != "" {
		t.Fatalf("after %s: %s is free beside a job it may run", after, id)
	}
	for _, r := range o.retries {
		if r.job.Attempt == 0 || r.off == nil {
			t.Fatalf("after %s: job %d (attempt %d) waits as a retry off %v", after, r.job.ID, r.job.Attempt, r.off)
		}
	}
}

// loadTimeout is the per-attempt deadline of a scheduled run; a scripted
// worker's late result arrives after it, a normal one well inside.
const loadTimeout = 30 * time.Millisecond

// scriptWorker settles each attempt the way a hash of (salt, job, attempt)
// says — mostly success, sometimes a fault, a result that arrives after
// the deadline, or a wedge that never reports — so a byte string fully
// determines a run and every outcome path gets exercised. running, shared
// by a run's workers, holds every attempt started and not yet reported.
type scriptWorker struct {
	id      string
	engine  *sim.Engine
	salt    uint64
	running map[attemptKey]bool
}

// attemptKey names one attempt of one job.
type attemptKey struct {
	job     int64
	attempt int
}

func (w *scriptWorker) ID() string { return w.id }

func (w *scriptWorker) RunJob(job Job, done func(Result)) {
	h := (w.salt ^ uint64(job.ID)<<8 ^ uint64(job.Attempt)) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	service := time.Duration(1+h%20) * time.Millisecond
	res := Result{Job: job, WorkerID: w.id, StartedAt: w.engine.Now()}
	key := attemptKey{job.ID, job.Attempt}
	w.running[key] = true
	switch (h >> 8) % 16 {
	case 0:
		return // wedged for good: only the deadline settles it
	case 1:
		service = loadTimeout + 15*time.Millisecond
	case 2, 3, 4:
		res.Err = "scripted fault"
	}
	w.engine.Schedule(service, func() {
		delete(w.running, key)
		res.FinishedAt = w.engine.Now()
		done(res)
	})
}

// runLoadSchedule interprets data as an orchestrator configuration (two
// bytes: breaker/backoff/attempt switches, outcome salt) followed by a
// schedule of operations over n workers under policy, and checks the
// backlog after every one of them. No callback fires twice, and unless
// the schedule drains, every job submitted with one has settled once or
// is held in exactly one place (heldJobs).
func runLoadSchedule(t testing.TB, policy AssignPolicy, n int, data []byte) {
	if len(data) < 2 {
		return
	}
	flags, salt := data[0], uint64(data[1])
	data = data[2:]
	e := sim.NewEngine(3)
	running := map[attemptKey]bool{}
	newWorker := func(id string) Worker { return &scriptWorker{id: id, engine: e, salt: salt, running: running} }
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
	checkBacklog(t, o, gone, "New")

	// at spreads a byte over the whole fleet, so ranks past 255 are hit too.
	at := func(ids []string, arg int) string { return ids[arg*len(ids)>>8] }
	fired := map[int64]int{}
	var submitted []int64
	drained := false
	cb := func(r Result) { fired[r.Job.ID]++ }
	resubmit := func(stolen []Job) {
		for _, job := range stolen {
			o.SubmitJob(job) //nolint:errcheck // ids are set; a draining refusal drops the job
			checkBacklog(t, o, gone, "SubmitJob")
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
			checkBacklog(t, o, gone, name)
			resubmit(stolen)
		case op == 11:
			name = "TakeAll"
			stolen := o.TakeAll()
			checkBacklog(t, o, gone, name)
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
		checkBacklog(t, o, gone, name)
	}
	for steps := 0; e.Step(); steps++ {
		checkBacklog(t, o, gone, "Step")
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
	held := heldJobs(o, running)
	for _, id := range submitted {
		// A job queued behind a wedged worker waits for its late reply,
		// which never comes: it is held, not lost.
		if want := 1 - fired[id]; held[id] != want {
			t.Fatalf("job %d settled %d times and is held in %d places: want settled once or held in one", id, fired[id], held[id])
		}
	}
}

// heldJobs counts, per job id, the places o holds the job in: a worker
// queue, the backlog, a waiting retry, a parked retry, or an attempt in
// flight — one its worker started (running) and o has not settled, which
// would have filed its record.
func heldJobs(o *Orchestrator, running map[attemptKey]bool) map[int64]int {
	settled := map[attemptKey]bool{}
	for _, r := range o.Collector().Records() {
		settled[attemptKey{r.JobID, r.Attempt}] = true
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	held := map[int64]int{}
	queue := func(q *jobQueue) {
		for _, job := range q.queue[q.qhead:] {
			held[job.ID]++
		}
	}
	queue(&o.backlog)
	for _, s := range o.slots {
		queue(&s.jobQueue)
	}
	for _, r := range o.retries {
		held[r.job.ID]++
	}
	for _, p := range o.parked {
		held[p.job.ID]++
	}
	for k := range running {
		if !settled[k] {
			held[k.job]++
		}
	}
	return held
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

// TestBacklogMatchesScan drives seeded random schedules — submits,
// settles of every outcome, breaker trips and parole, backoff retries,
// steals, membership changes, drain — over small and rack-sized fleets
// with the breaker off and on, holding the free stacks and the backlog to
// a scan of the slots after every step. The fleets past 64 slots churn
// their membership.
func TestBacklogMatchesScan(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 5, 8, 17, 64, 65, 130, 1024} {
		for flags := 0; flags < 4; flags++ {
			for seed := int64(1); seed <= 4; seed++ {
				runLoadSchedule(t, AssignLeastLoaded, workers, loadSchedule(seed, workers, flags, 600, workers > 64))
			}
		}
	}
}

// TestOtherPoliciesBuildNoIndex runs the same schedules under every other
// policy: no free stack, backlog or retry exclusion is kept, and every job
// still settles once.
func TestOtherPoliciesBuildNoIndex(t *testing.T) {
	for _, policy := range []AssignPolicy{AssignRandom, AssignRoundRobin, AssignEnergyAware} {
		for _, workers := range []int{1, 8, 65} {
			for flags := 0; flags < 4; flags++ {
				runLoadSchedule(t, policy, workers, loadSchedule(int64(flags)+1, workers, flags, 300, workers > 64))
			}
		}
	}
}

// fuzzFleet maps a byte to a fleet size: 1–64 for the low half, 65–1,081
// in steps of 8 for the high half.
func fuzzFleet(b byte) int {
	if b < 128 {
		return 1 + int(b)%64
	}
	return 65 + 8*int(b-128)
}

// FuzzBacklog feeds the same checker from raw bytes: the first picks the
// fleet size (fuzzFleet), the rest is runLoadSchedule's input.
func FuzzBacklog(f *testing.F) {
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

// TestBacklogMemoryBounded keeps every board of a 1,024-board rack busy,
// backs 10,000 jobs up behind them and settles everything, twice. The
// drained backlog holds no array, and the second cycle grows neither free
// stack: what late binding keeps is one stack slot per board.
func TestBacklogMemoryBounded(t *testing.T) {
	const boards, depth = 1024, 10000
	lot, o := parkedRack(t, boards)
	cycle := func() {
		for i := 0; i < boards+depth; i++ {
			o.Submit("f", nil)
		}
		if got := o.backlog.qlen(); got != depth || o.Queued() != depth {
			t.Fatalf("backlog holds %d jobs, Queued() = %d; want %d", got, o.Queued(), depth)
		}
		for ; lot.head < len(lot.runs); lot.head++ {
			run := lot.runs[lot.head]
			lot.runs[lot.head] = parkedRun{}
			run.done(Result{Job: run.job, WorkerID: run.w.id})
		}
		lot.runs, lot.head = lot.runs[:0], 0
		checkBacklog(t, o, nil, "drain")
		if o.backlog.queue != nil || len(o.free[0]) != boards {
			t.Fatalf("drained: backlog array of cap %d kept, %d of %d boards free", cap(o.backlog.queue), len(o.free[0]), boards)
		}
	}
	cycle()
	caps := [2]int{cap(o.free[0]), cap(o.free[1])}
	cycle()
	if caps != [2]int{cap(o.free[0]), cap(o.free[1])} {
		t.Fatalf("second cycle grew the free stacks: caps %v → [%d %d]", caps, cap(o.free[0]), cap(o.free[1]))
	}
}

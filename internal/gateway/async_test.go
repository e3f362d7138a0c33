package gateway

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"microfaas/internal/core"
)

// idleWorker is the worker behind a table-test gateway; the tests replace
// the gateway's submit route, so it is never handed a job.
type idleWorker struct{}

func (idleWorker) ID() string                         { return "idle" }
func (idleWorker) RunJob(core.Job, func(core.Result)) {}

// asyncTable drives a gateway's async job table on a clock and a poll hold
// the test steps. Jobs never run: the gateway's submit route is replaced by
// one that numbers the jobs and keeps their callbacks for the test to fire;
// everything else goes through the real handlers.
type asyncTable struct {
	t  testing.TB
	gw *Server
	h  http.Handler

	// Handlers read the clock and arm their holds on their own goroutines.
	clk   sync.Mutex
	now   time.Duration // since gw.start
	holds []armedHold
	// parked carries one token per hold armed: a poll arms its hold after it
	// has taken its row's done channel, so the poll is parked from then on.
	parked chan struct{}

	nextID    int64
	settle    bool // submit completes the job before it returns, ahead of the row's filing
	callbacks map[int64]func(core.Result)
}

// armedHold is a parked poll's hold: a real timer far in the future, which
// at fires early by resetting it once the stepped clock reaches its time.
type armedHold struct {
	at    time.Duration
	timer *time.Timer
}

func newAsyncTable(t testing.TB) *asyncTable {
	t.Helper()
	orch, err := core.New(core.Config{Runtime: core.NewWallRuntime(), Workers: []core.Worker{idleWorker{}}})
	if err != nil {
		t.Fatal(err)
	}
	a := &asyncTable{t: t, parked: make(chan struct{}), callbacks: map[int64]func(core.Result){}}
	a.gw = front(t, orch, Options{})
	a.gw.timeout = time.Second
	a.h = a.gw.Handler()
	a.gw.now = func() time.Time {
		a.clk.Lock()
		defer a.clk.Unlock()
		return a.gw.start.Add(a.now)
	}
	a.gw.newTimer = func(d time.Duration) *time.Timer {
		timer := time.NewTimer(time.Hour)
		a.clk.Lock()
		a.holds = append(a.holds, armedHold{at: a.now + d, timer: timer})
		a.clk.Unlock()
		a.parked <- struct{}{}
		return timer
	}
	a.gw.submit = func(_, _ string, _ []byte, cb func(core.Result)) (int64, int) {
		a.nextID++
		a.callbacks[a.nextID] = cb
		if a.settle {
			a.complete(a.nextID)
		}
		return a.nextID, 0
	}
	return a
}

// at moves the clock to d past the table's start and fires the holds that
// have run out by then. The polls they release answer on their own
// goroutines; wait for each with answer.
func (a *asyncTable) at(d time.Duration) {
	a.clk.Lock()
	defer a.clk.Unlock()
	a.now = d
	kept := a.holds[:0]
	for _, h := range a.holds {
		if h.at <= d {
			h.timer.Reset(0)
		} else {
			kept = append(kept, h)
		}
	}
	a.holds = kept
}

// submit posts one async invocation through the real handler and returns
// the job's id, holding the 202 to its exact bytes.
func (a *asyncTable) submit() int64 {
	a.t.Helper()
	rec := httptest.NewRecorder()
	a.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invoke?async=1", strings.NewReader(`{"function":"RegExMatch"}`)))
	if want := fmt.Sprintf("{\"job_id\":%d}\n", a.nextID); rec.Code != http.StatusAccepted || rec.Body.String() != want {
		a.t.Fatalf("async submit → %d %q, want 202 %q", rec.Code, rec.Body, want)
	}
	return a.nextID
}

// submitSettled submits a job whose worker finishes inside submit, before
// the handler has filed the row — what a null worker does, and what a fast
// live one can.
func (a *asyncTable) submitSettled() int64 {
	a.t.Helper()
	a.settle = true
	defer func() { a.settle = false }()
	return a.submit()
}

// complete fires the job's completion callback, as its worker would.
func (a *asyncTable) complete(id int64) {
	cb := a.callbacks[id]
	delete(a.callbacks, id)
	cb(core.Result{Job: core.Job{ID: id, Function: "F"}, WorkerID: "w"})
}

// poll is one GET /jobs/{id} in flight on its own goroutine.
type poll struct {
	id       int64
	rec      *httptest.ResponseRecorder
	hangUp   context.CancelFunc // the client going away
	answered chan struct{}      // closed when the handler has returned
}

// poll starts a GET /jobs/{id} and returns once it has either answered or
// parked.
func (a *asyncTable) poll(id int64) (p *poll, parked bool) {
	ctx, cancel := context.WithCancel(context.Background())
	p = &poll{id: id, rec: httptest.NewRecorder(), hangUp: cancel, answered: make(chan struct{})}
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/jobs/%d", id), nil).WithContext(ctx)
	go func() {
		defer close(p.answered)
		a.h.ServeHTTP(p.rec, req)
	}()
	select {
	case <-p.answered:
		cancel()
		return p, false
	case <-a.parked:
		return p, true
	}
}

// answer waits for the poll's handler to return and names what it said:
// "done", "pending", "gone", or "nothing" for a poll whose client hung up.
func (a *asyncTable) answer(p *poll) string {
	a.t.Helper()
	<-p.answered
	switch {
	case p.rec.Body.Len() == 0:
		return "nothing"
	case p.rec.Code == http.StatusOK:
		return "done"
	case p.rec.Code == http.StatusAccepted:
		return "pending"
	case p.rec.Code == http.StatusNotFound:
		return "gone"
	}
	a.t.Fatalf("GET /jobs/%d → %d %q", p.id, p.rec.Code, p.rec.Body)
	return ""
}

// want polls each job and checks the state it reads without moving the
// clock: "done" (which consumes the result, as any fetch does) and "gone"
// answer at once; "pending" means the poll parked, and its client then
// hangs up.
func (a *asyncTable) want(state string, ids ...int64) {
	a.t.Helper()
	for _, id := range ids {
		p, parked := a.poll(id)
		got := "pending"
		if parked {
			p.hangUp()
			if said := a.answer(p); said != "nothing" {
				a.t.Fatalf("a hung-up poll of job %d was answered %q", id, said)
			}
		} else {
			got = a.answer(p)
		}
		if got != state {
			a.t.Fatalf("job %d reads %q at +%v, want %q", id, got, a.now, state)
		}
	}
}

// rows reaps at the current time and returns the table's size, checking
// its structure on the way: the expiry ring holds exactly the table's rows,
// doubly linked, in expiry order, none of them expired, and the gauges
// agree with it.
func (a *asyncTable) rows() int {
	a.t.Helper()
	now := a.gw.now().Sub(a.gw.start)
	a.gw.mu.Lock()
	defer a.gw.mu.Unlock()
	a.gw.reapLocked(now)
	n, last := 0, time.Duration(0)
	for j := a.gw.expiry.next; j != &a.gw.expiry; j = j.next {
		switch {
		case a.gw.jobs[j.resp.JobID] != j:
			a.t.Fatalf("job %d is on the expiry list but not its row in the table", j.resp.JobID)
		case j.next.prev != j || j.prev.next != j:
			a.t.Fatalf("job %d is not doubly linked", j.resp.JobID)
		case j.expiresAt < last || j.expiresAt < now:
			a.t.Fatalf("job %d expires at %v, after one that expires at %v, at +%v", j.resp.JobID, j.expiresAt, last, now)
		}
		last = j.expiresAt
		if n++; n > len(a.gw.jobs) {
			break
		}
	}
	if n != len(a.gw.jobs) {
		a.t.Fatalf("expiry list holds %d rows, the table %d", n, len(a.gw.jobs))
	}
	if g := a.gw.unfetched.Value(); g != float64(n) {
		a.t.Fatalf("microfaas_gateway_async_unfetched reads %v over %d rows", g, n)
	}
	return n
}

// expired reads microfaas_gateway_async_expired_total for one state.
func (a *asyncTable) expired(state string) float64 {
	return a.gw.plane.Registry().Snapshot("", "").Sum("microfaas_gateway_async_expired_total", "state", state)
}

// TestAsyncPendingSurvivesFastPollerRace is the regression test for the
// pending-entry leak: a worker that finishes before the submitting handler
// has filed the job's row must not leave a row that reads pending forever,
// nor lose its result. The callback closes over the row the handler made,
// so whichever side is late finds the other's work on it.
func TestAsyncPendingSurvivesFastPollerRace(t *testing.T) {
	a := newAsyncTable(t)

	// Normal order: filed pending, then completed; the result is fetched
	// exactly once.
	slow := a.submit()
	a.want("pending", slow)
	a.complete(slow)
	a.want("done", slow)
	a.want("gone", slow) // double fetch → 404

	// Race order: the completion lands inside submit. The row is filed
	// already done — never pending — and its result is there for the first
	// poll, which does not park.
	fast := a.submitSettled()
	if rows := a.rows(); rows != 1 {
		t.Fatalf("%d rows for one unfetched job", rows)
	}
	a.want("done", fast)
	a.want("gone", fast)

	if rows := a.rows(); rows != 0 {
		t.Fatalf("%d rows left by two fetched jobs", rows)
	}
}

// TestAsyncPollParksUntilCompletionOrHold pins what a poll of a pending job
// does: it parks, answers with the result the moment the job completes,
// answers 202 when pollHold passes first, and goes away without spending
// the result when its client hangs up. Polls of anything else never park.
func TestAsyncPollParksUntilCompletionOrHold(t *testing.T) {
	a := newAsyncTable(t)

	// Woken by completion, the clock standing still.
	id := a.submit()
	p, parked := a.poll(id)
	if !parked {
		t.Fatalf("a poll of a pending job answered %q at once", a.answer(p))
	}
	if g := a.gw.pollsParked.Value(); g != 1 {
		t.Fatalf("microfaas_gateway_polls_parked reads %v with one poll parked", g)
	}
	a.complete(id)
	if said := a.answer(p); said != "done" {
		t.Fatalf("the parked poll was answered %q on completion", said)
	}
	if g := a.gw.pollsParked.Value(); g != 0 {
		t.Fatalf("microfaas_gateway_polls_parked reads %v with none parked", g)
	}
	a.want("gone", id)

	// Released by the hold: 202, to the byte, no sooner than pollHold.
	id = a.submit()
	p, _ = a.poll(id)
	a.at(pollHold - time.Nanosecond)
	select {
	case <-p.answered:
		t.Fatalf("the poll was answered %q before the hold ran out", a.answer(p))
	default:
	}
	a.at(pollHold)
	if said := a.answer(p); said != "pending" || p.rec.Body.String() != "{\"status\":\"pending\"}\n" {
		t.Fatalf("at the hold the poll was answered %q %q", said, p.rec.Body)
	}

	// A client that hangs up gets nothing, and costs the job nothing: the
	// result goes to the next poll, which finds it done and does not park.
	p, _ = a.poll(id)
	p.hangUp()
	if said := a.answer(p); said != "nothing" {
		t.Fatalf("a hung-up poll was answered %q", said)
	}
	a.complete(id)
	a.want("done", id)
	a.want("gone", id, id+1) // fetched, never submitted: answered at the first look
}

// TestAsyncStateExpires verifies both kinds of row — a held result, and a
// pending job whose callback never fires (abandoned in a drain) — are
// dropped once their retention window passes and counted as they go, that
// a job completing late in its pending window is kept for a full window
// from completion, that nothing is dropped early, and that a poll parked on
// a row when it expires answers 404.
func TestAsyncStateExpires(t *testing.T) {
	a := newAsyncTable(t)
	const late = RetainAsync - time.Minute // shortly before the first windows close

	abandoned := a.submit() // never completes
	unfetched := a.submit() // completes at once, never fetched
	a.complete(unfetched)
	fetched := a.submit() // completes at once, fetched: its row goes then
	a.complete(fetched)
	a.want("done", fetched)
	lateDone := a.submit() // completes late in its pending window
	a.at(late)
	a.complete(lateDone)
	lateSubmit := a.submit()

	// At the very edge of the first window nothing may be gone.
	a.at(RetainAsync)
	if rows := a.rows(); rows != 4 {
		t.Fatalf("%d of 4 unfetched rows left at the edge of the first window", rows)
	}
	p, parked := a.poll(abandoned)
	if !parked {
		t.Fatalf("the abandoned job reads %q at the edge of its window", a.answer(p))
	}

	// Past it the abandoned and unfetched rows are dropped, and the poll
	// parked on one of them — its hold has run out too — finds it gone.
	a.at(RetainAsync + time.Second)
	if said := a.answer(p); said != "gone" {
		t.Fatalf("the poll parked on a row that expired was answered %q", said)
	}
	if rows := a.rows(); rows != 2 {
		t.Fatalf("%d rows survive the first window, want the two late jobs only", rows)
	}
	a.want("gone", abandoned, unfetched, fetched)
	if p, d := a.expired("pending"), a.expired("done"); p != 1 || d != 1 {
		t.Fatalf("expired_total reads pending %v done %v, want 1 and 1", p, d)
	}
	// The late submission is still pending, and the late completer outlives
	// its pending expiry: its window restarted at completion.
	a.want("pending", lateSubmit)
	a.want("done", lateDone)

	a.at(late + RetainAsync + time.Second)
	if rows := a.rows(); rows != 0 {
		t.Fatalf("%d rows outlive every window", rows)
	}
	if p, d := a.expired("pending"), a.expired("done"); p != 2 || d != 1 {
		t.Fatalf("expired_total reads pending %v done %v, want 2 and 1", p, d)
	}
	// A completion that comes after all, for a row long gone, files nothing.
	a.complete(abandoned)
	a.want("gone", abandoned)
	if rows := a.rows(); rows != 0 {
		t.Fatalf("a completion after expiry left %d rows", rows)
	}
}

// TestAsyncAbandonedJobAnswers202ThenExpires follows a job abandoned in a
// drain (its callback never comes) as a client sees it: every poll is held
// the whole hold and answered 202, until RetainAsync after submission the
// job is gone.
func TestAsyncAbandonedJobAnswers202ThenExpires(t *testing.T) {
	a := newAsyncTable(t)
	id := a.submit()
	for _, start := range []time.Duration{0, time.Minute, RetainAsync - pollHold} {
		a.at(start)
		p, parked := a.poll(id)
		if !parked {
			t.Fatalf("at +%v the poll answered %q without parking", start, a.answer(p))
		}
		a.at(start + pollHold)
		if said := a.answer(p); said != "pending" {
			t.Fatalf("at +%v the held poll was answered %q", start+pollHold, said)
		}
	}
	a.at(RetainAsync + time.Nanosecond)
	a.want("gone", id)
}

// TestAsyncFetchedJobsLeaveNoRows is the bound on a long-lived gateway's
// memory: 10,000 jobs submitted, completed and fetched leave nothing in the
// table, with the clock never reaching an expiry.
func TestAsyncFetchedJobsLeaveNoRows(t *testing.T) {
	a := newAsyncTable(t)
	for i := 0; i < 10000; i++ {
		a.at(time.Duration(i) * time.Microsecond)
		var id int64
		if i%2 == 0 {
			id = a.submit()
			a.complete(id)
		} else {
			id = a.submitSettled()
		}
		a.want("done", id)
		if len(a.gw.jobs) != 0 {
			t.Fatalf("%d rows in the table after job %d was fetched", len(a.gw.jobs), id)
		}
	}
	if rows := a.rows(); rows != 0 {
		t.Fatalf("%d rows left by 10,000 fetched jobs", rows)
	}
	if e := a.expired("pending") + a.expired("done"); e != 0 {
		t.Fatalf("%v rows expired; every one was fetched", e)
	}
}

// TestAsyncParkedPollersShareOneResult parks N polls on one job: the
// completion wakes them all, exactly one is handed the result, and the
// rest find the job gone.
func TestAsyncParkedPollersShareOneResult(t *testing.T) {
	a := newAsyncTable(t)
	const pollers = 16
	id := a.submit()
	polls := make([]*poll, pollers)
	for i := range polls {
		var parked bool
		if polls[i], parked = a.poll(id); !parked {
			t.Fatalf("poll %d answered %q without parking", i, a.answer(polls[i]))
		}
	}
	if g := a.gw.pollsParked.Value(); g != pollers {
		t.Fatalf("microfaas_gateway_polls_parked reads %v with %d parked", g, pollers)
	}
	a.complete(id)
	said := map[string]int{}
	for _, p := range polls {
		said[a.answer(p)]++
	}
	if said["done"] != 1 || said["gone"] != pollers-1 {
		t.Fatalf("%d pollers on one job were answered %v, want one done and the rest gone", pollers, said)
	}
	if rows := a.rows(); rows != 0 {
		t.Fatalf("%d rows after the fetch", rows)
	}
}

// asyncModel is the reference the schedule test holds the table to: a plain
// map from job id to state. A row is live until its expiry has passed.
type asyncModel struct {
	rows map[int64]*modelRow
	now  time.Duration
}

type modelRow struct {
	done      bool
	expiresAt time.Duration
}

// live returns the job's row if it has one that has not expired.
func (m *asyncModel) live(id int64) *modelRow {
	if r := m.rows[id]; r != nil && m.now <= r.expiresAt {
		return r
	}
	delete(m.rows, id)
	return nil
}

// runAsyncSchedule plays a byte-coded schedule of submits, completions,
// polls, client hang-ups and clock steps against one gateway and, in step,
// against the map model, comparing every reply and — after every operation
// — the whole table: as many rows as the model has live, each in the
// model's state with the model's expiry, on a well-formed expiry list.
func runAsyncSchedule(t testing.TB, schedule []byte) {
	a := newAsyncTable(t)
	m := &asyncModel{rows: map[int64]*modelRow{}}
	type parkedPoll struct {
		*poll
		holdEnds time.Duration
	}
	var parked []parkedPoll
	var pending []int64 // submitted, callback not yet fired — whether or not the row still exists
	fetches := map[int64]int{}
	steps := []time.Duration{time.Microsecond, pollHold / 2, pollHold, time.Minute, RetainAsync / 2, RetainAsync}

	// release waits for the parked polls that sel picks and checks what they
	// were answered: want(id) names it, except that of several released on
	// one job at most one may have been handed its result.
	release := func(sel func(parkedPoll) bool, want func(id int64) string) {
		t.Helper()
		kept := parked[:0]
		for _, p := range parked {
			if !sel(p) {
				kept = append(kept, p)
				continue
			}
			said := a.answer(p.poll)
			if said == "done" {
				fetches[p.id]++
			}
			if w := want(p.id); said != w && !(w == "done" && said == "gone") {
				t.Fatalf("parked poll of job %d was answered %q, want %q", p.id, said, w)
			}
		}
		parked = kept
	}

	for pc := 0; pc+1 < len(schedule); pc += 2 {
		op, arg := schedule[pc]%7, int(schedule[pc+1])
		switch op {
		case 0: // submit
			id := a.submit()
			m.rows[id] = &modelRow{expiresAt: m.now + RetainAsync}
			pending = append(pending, id)
		case 1: // submit, the completion beating the row's filing
			id := a.submitSettled()
			m.rows[id] = &modelRow{done: true, expiresAt: m.now + RetainAsync}
		case 2: // complete a job in flight
			if len(pending) == 0 {
				continue
			}
			i := arg % len(pending)
			id := pending[i]
			pending = append(pending[:i], pending[i+1:]...)
			a.complete(id)
			r := m.live(id)
			if r == nil {
				continue // the row expired while pending: the result is dropped, nobody is woken
			}
			r.done, r.expiresAt = true, m.now+RetainAsync
			woken := 0
			release(func(p parkedPoll) bool { return p.id == id }, func(int64) string { woken++; return "done" })
			if woken > 0 {
				if fetches[id] != 1 {
					t.Fatalf("%d polls woken by job %d's completion, %d handed the result", woken, id, fetches[id])
				}
				delete(m.rows, id)
			}
		case 3, 4: // poll: any job, or (a fetch) the newest few
			id := 1 + int64(arg)%(a.nextID+1) // the last of them not submitted yet
			if op == 4 {
				if id = a.nextID - int64(arg%4); id <= 0 {
					continue
				}
			}
			p, didPark := a.poll(id)
			r := m.live(id)
			switch {
			case r != nil && !r.done:
				if !didPark {
					t.Fatalf("poll of pending job %d answered %q without parking", id, a.answer(p))
				}
				parked = append(parked, parkedPoll{poll: p, holdEnds: m.now + pollHold})
			case didPark:
				t.Fatalf("poll of job %d parked; the model has it %+v", id, r)
			case r != nil:
				if said := a.answer(p); said != "done" {
					t.Fatalf("poll of done job %d answered %q", id, said)
				}
				fetches[id]++
				delete(m.rows, id)
			default:
				if said := a.answer(p); said != "gone" {
					t.Fatalf("poll of job %d, which the model does not have, answered %q", id, said)
				}
			}
		case 5: // step the clock; holds that run out answer 202, or 404 if the row expired under them
			m.now += steps[arg%len(steps)]
			a.at(m.now)
			release(func(p parkedPoll) bool { return p.holdEnds <= m.now }, func(id int64) string {
				if m.live(id) != nil {
					return "pending"
				}
				return "gone"
			})
		case 6: // a parked poll's client hangs up
			if len(parked) == 0 {
				continue
			}
			gone := parked[arg%len(parked)].poll
			gone.hangUp()
			release(func(p parkedPoll) bool { return p.poll == gone }, func(int64) string { return "nothing" })
		}

		live := 0
		for id := range m.rows {
			if m.live(id) != nil {
				live++
			}
		}
		if rows := a.rows(); rows != live {
			t.Fatalf("op %d (%d,%d): the table holds %d rows, the model %d", pc/2, op, arg, rows, live)
		}
		a.gw.mu.Lock()
		for id, r := range m.rows {
			if j := a.gw.jobs[id]; j == nil || j.completed != r.done || j.expiresAt != r.expiresAt {
				t.Fatalf("op %d: job %d's row is %+v, the model's %+v", pc/2, id, j, r)
			}
		}
		a.gw.mu.Unlock()
		for id, n := range fetches {
			if n > 1 {
				t.Fatalf("op %d: job %d's result was handed over %d times", pc/2, id, n)
			}
		}
		if g := a.gw.pollsParked.Value(); g != float64(len(parked)) {
			t.Fatalf("op %d: microfaas_gateway_polls_parked reads %v with %d parked", pc/2, g, len(parked))
		}
	}
	// Nothing may be left parked on a goroutine the test does not wait for.
	for _, p := range parked {
		p.hangUp()
		a.answer(p.poll)
	}
}

// asyncScheduleSeeds are hand-written schedules, each aimed at one
// interleaving; the fuzz target starts from them.
var asyncScheduleSeeds = [][]byte{
	{0, 0, 3, 1, 2, 0, 3, 1, 3, 1},                   // submit, park, complete (wakes), double fetch
	{1, 0, 4, 0, 4, 0},                               // complete-before-register, fetch, fetch again
	{0, 0, 3, 1, 3, 1, 3, 1, 2, 0},                   // three parked on one job, one completion
	{0, 0, 3, 1, 5, 2, 3, 1, 6, 0, 2, 0, 4, 0},       // hold runs out, park again, hang up, complete, fetch
	{0, 0, 3, 1, 5, 5, 5, 0, 2, 0, 4, 0},             // row expires under a parked poll; completion after expiry
	{0, 0, 5, 4, 2, 0, 5, 4, 4, 0, 5, 4, 5, 4, 4, 0}, // late completion restarts the window
	{0, 0, 0, 0, 1, 0, 5, 5, 0, 0, 5, 3, 5, 5, 3, 3}, // mixed expiries, then a poll that reaps
}

// TestAsyncTableSchedules runs the seed schedules and a few thousand random
// operations through runAsyncSchedule.
func TestAsyncTableSchedules(t *testing.T) {
	for _, s := range asyncScheduleSeeds {
		runAsyncSchedule(t, s)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20; i++ {
		s := make([]byte, 400)
		rng.Read(s)
		runAsyncSchedule(t, s)
	}
}

// FuzzAsyncTable holds the async job table to the map model under any
// schedule of operations.
func FuzzAsyncTable(f *testing.F) {
	for _, s := range asyncScheduleSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) > 2000 {
			schedule = schedule[:2000]
		}
		runAsyncSchedule(t, schedule)
	})
}

package gateway

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"microfaas/internal/core"
)

// listen puts the table's gateway on a real socket and the real clock (a
// poll arming its hold still leaves its token in a.parked), with the edge
// timeouts shortened to beat — headers, whole request and idle alike — and
// returns a raw connection to it.
func (a *asyncTable) listen(beat time.Duration) net.Conn {
	t := a.t
	t.Helper()
	a.gw.now = time.Now
	a.gw.newTimer = func(d time.Duration) *time.Timer {
		a.parked <- struct{}{}
		return time.NewTimer(d)
	}
	a.gw.edge.header, a.gw.edge.read, a.gw.edge.idle = beat, beat, beat
	addr, err := a.gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.gw.Close() }) //nolint:errcheck
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a hung test fails here, not at the suite's timeout
	return conn
}

// closedAfter reads the connection to its end and returns how long the
// server took to close it.
func closedAfter(t *testing.T, conn net.Conn) time.Duration {
	t.Helper()
	begin := time.Now()
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("the server did not close the connection: %v", err)
	}
	return time.Since(begin)
}

// TestEdgeClosesTricklingBody sends complete headers and then a body that
// never finishes arriving: the connection is closed when the read timeout
// has passed, not held open.
func TestEdgeClosesTricklingBody(t *testing.T) {
	const beat = 100 * time.Millisecond
	conn := newAsyncTable(t).listen(beat)
	fmt.Fprintf(conn, "POST /invoke HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"function\":")
	if took := closedAfter(t, conn); took < beat/2 {
		t.Fatalf("closed after %v, well inside the %v read timeout", took, beat)
	}
}

// TestEdgeClosesIdleConnection answers one request and then hears nothing
// more: the kept-alive connection is closed at the idle timeout.
func TestEdgeClosesIdleConnection(t *testing.T) {
	const beat = 100 * time.Millisecond
	conn := newAsyncTable(t).listen(beat)
	fmt.Fprintf(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	if resp.StatusCode != http.StatusOK || resp.Close {
		t.Fatalf("GET /healthz → %d, close=%v; want 200 on a kept-alive connection", resp.StatusCode, resp.Close)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("the idle connection was not closed: %v", err)
	}
}

// TestEdgeKeepsParkedPoll holds a poll parked for the whole of pollHold
// against read and idle timeouts a twentieth of that: it gets its 202 on
// the connection it came in on.
func TestEdgeKeepsParkedPoll(t *testing.T) {
	a := newAsyncTable(t)
	id := a.submit()
	conn := a.listen(pollHold / 20)
	begin := time.Now()
	fmt.Fprintf(conn, "GET /jobs/%d HTTP/1.1\r\nHost: x\r\n\r\n", id)
	<-a.parked
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("the parked poll's connection was cut after %v: %v", time.Since(begin), err)
	}
	if held := time.Since(begin); resp.StatusCode != http.StatusAccepted || held < pollHold {
		t.Fatalf("the parked poll was answered %d after %v, want 202 after %v", resp.StatusCode, held, pollHold)
	}
}

// TestEdgeKeepsSlowInvoke is the other reply that is late by design: a sync
// invoke of a function that takes ten times the read and idle timeouts
// still gets its result (net/http lifts the read deadline once the body is
// in, and the gateway sets no write timeout).
func TestEdgeKeepsSlowInvoke(t *testing.T) {
	const beat = 50 * time.Millisecond
	a := newAsyncTable(t)
	a.gw.submit = func(_, _ string, _ []byte, cb func(core.Result)) (int64, int) {
		time.AfterFunc(10*beat, func() { cb(core.Result{Job: core.Job{ID: 1}, WorkerID: "w"}) })
		return 1, 0
	}
	conn := a.listen(beat)
	body := `{"function":"RegExMatch"}`
	fmt.Fprintf(conn, "POST /invoke HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("the slow invoke's reply: %v, %v", resp, err)
	}
}

// TestReplyThatDoesNotEncodeIs502 settles jobs with an Output that is not
// JSON, which only a misbehaving worker sends: sync /invoke and the async
// fetch each answer 502 with the reason, not 200 with an empty body.
func TestReplyThatDoesNotEncodeIs502(t *testing.T) {
	a := newAsyncTable(t)
	a.gw.submit = func(_, fn string, _ []byte, cb func(core.Result)) (int64, int) {
		a.nextID++
		cb(core.Result{Job: core.Job{ID: a.nextID, Function: fn}, WorkerID: "w", Output: []byte(`{"a":`)})
		return a.nextID, 0
	}
	invoked := httptest.NewRecorder()
	a.h.ServeHTTP(invoked, httptest.NewRequest(http.MethodPost, "/invoke", strings.NewReader(`{"function":"RegExMatch"}`)))
	fetched := httptest.NewRecorder()
	a.h.ServeHTTP(fetched, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/jobs/%d", a.submit()), nil))
	for name, rec := range map[string]*httptest.ResponseRecorder{"POST /invoke": invoked, "GET /jobs/{id}": fetched} {
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusBadGateway || err != nil || body.Error == "" {
			t.Errorf("%s → %d %q, want 502 with an error body", name, rec.Code, rec.Body)
		}
	}
}

// TestAsyncHungUpPollerLeavesNoGoroutine parks polls over real connections
// and closes them: every handler must notice, return and free its
// goroutine, with the job — which never completes — still in the table.
func TestAsyncHungUpPollerLeavesNoGoroutine(t *testing.T) {
	a := newAsyncTable(t)
	id := a.submit()
	first := a.listen(time.Minute)
	before := runtime.NumGoroutine()
	conns := []net.Conn{first}
	for len(conns) < 8 {
		c, err := net.Dial("tcp", first.RemoteAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns = append(conns, c)
	}
	for _, c := range conns {
		fmt.Fprintf(c, "GET /jobs/%d HTTP/1.1\r\nHost: x\r\n\r\n", id)
		<-a.parked
	}
	if g := a.gw.pollsParked.Value(); g != float64(len(conns)) {
		t.Fatalf("microfaas_gateway_polls_parked reads %v with %d parked", g, len(conns))
	}
	for _, c := range conns {
		c.Close()
	}
	deadline := time.Now().Add(pollHold / 2) // well before the hold would free them anyway
	for a.gw.pollsParked.Value() != 0 || runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%v polls still parked and %d goroutines (%d before) after every client hung up",
				a.gw.pollsParked.Value(), runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	if rows := a.rows(); rows != 1 {
		t.Fatalf("%d rows; the pending job should be untouched", rows)
	}
}

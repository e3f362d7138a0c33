package proto

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// loopWorker echoes args back as output.
func loopWorker(t *testing.T) string {
	return serveWorker(t, func(req Request) Response { return Response{Output: req.Args} })
}

// TestConnConcurrentInvokes hammers one multiplexed Conn from many
// goroutines and checks every response pairs with its own request (run
// under -race this also exercises the Conn's locking).
func TestConnConcurrentInvokes(t *testing.T) {
	addr := loopWorker(t)
	c := NewConn(addr)
	defer c.Close()
	const goroutines, calls = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*calls)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				id := int64(g*1000 + i)
				args := []byte(fmt.Sprintf(`{"caller":%d}`, id))
				resp, err := c.Invoke(Request{JobID: id, Function: "echo", Args: args}, 5*time.Second)
				if err != nil {
					errs <- fmt.Errorf("job %d: %w", id, err)
					return
				}
				if string(resp.Output) != string(args) {
					errs <- fmt.Errorf("job %d: got someone else's output %s", id, resp.Output)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// silentThenEchoWorker serves its first connection by reading requests
// (reporting each on recvd) and never replying; every later connection
// gets a normal echo loop. It models a wedged worker that a power-cycle
// brings back healthy.
func silentThenEchoWorker(t *testing.T) (addr string, recvd <-chan Request) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan Request, 16)
	go func() {
		first := true
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			silent := first
			first = false
			go func(c net.Conn) {
				defer c.Close()
				if !silent {
					ServeLoop(c, func(req Request) Response { //nolint:errcheck
						return Response{Output: req.Args}
					})
					return
				}
				br := bufio.NewReader(c)
				var scratch []byte
				for {
					req, err := ReadRequest(br, &scratch)
					if err != nil {
						return // peer tore the session down
					}
					ch <- req
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), ch
}

// TestConnResetSettlesInFlightExactlyOnce parks several invokes (no
// timeout: only a settle can release them) on a silent connection, resets
// it mid-flight, and checks each call returns exactly once with the reset
// error — no invocation lost, none double-settled — and that the next
// invoke transparently redials.
func TestConnResetSettlesInFlightExactlyOnce(t *testing.T) {
	addr, recvd := silentThenEchoWorker(t)
	c := NewConn(addr)
	defer c.Close()
	const inflight = 4
	done := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			_, err := c.Invoke(Request{JobID: int64(i + 1), Function: "x"}, 0)
			done <- err
		}(i)
	}
	// Wait until the worker has read all the request frames, so every call
	// is genuinely in flight when the reset lands.
	for i := 0; i < inflight; i++ {
		select {
		case <-recvd:
		case <-time.After(5 * time.Second):
			t.Fatal("worker never received all requests")
		}
	}
	c.Reset("power-cycled (test)")
	for i := 0; i < inflight; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("in-flight invoke survived a reset with a success")
			}
			if !strings.Contains(err.Error(), "reset") {
				t.Fatalf("unexpected settle error: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("invoke %d lost: never settled after reset", i)
		}
	}
	// Exactly once: no call may settle a second time.
	select {
	case err := <-done:
		t.Fatalf("an invoke settled twice (second result: %v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	// The connection recovers lazily: the next invoke redials and lands on
	// the healthy serve loop.
	resp, err := c.Invoke(Request{JobID: 99, Function: "x", Args: []byte(`"ok"`)}, 5*time.Second)
	if err != nil {
		t.Fatalf("invoke after reset: %v", err)
	}
	if string(resp.Output) != `"ok"` {
		t.Fatalf("post-reset output = %s", resp.Output)
	}
}

// TestConnInvokeTimeoutDropsConnAndRedials wedges the first connection (a
// request with no reply), lets the invoke time out, and checks the Conn
// abandoned that session: the follow-up invoke must arrive on a fresh
// connection and succeed.
func TestConnInvokeTimeoutDropsConnAndRedials(t *testing.T) {
	addr, recvd := silentThenEchoWorker(t)
	c := NewConn(addr)
	defer c.Close()
	start := time.Now()
	if _, err := c.Invoke(Request{JobID: 1, Function: "x"}, 200*time.Millisecond); err == nil {
		t.Fatal("silent worker did not time out")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout took far too long")
	}
	<-recvd // the wedged conn really had the request
	resp, err := c.Invoke(Request{JobID: 2, Function: "x", Args: []byte(`"again"`)}, 5*time.Second)
	if err != nil {
		t.Fatalf("invoke after timeout: %v", err)
	}
	if string(resp.Output) != `"again"` {
		t.Fatalf("post-timeout output = %s", resp.Output)
	}
}

// TestConnRedialsAfterPeerHangup lets the worker close the session between
// jobs (the between-jobs power-down case) and checks the next invoke
// succeeds on a fresh dial once the Conn has noticed the hangup.
func TestConnRedialsAfterPeerHangup(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		first := true
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			oneShot := first
			first = false
			go func(c net.Conn) {
				defer c.Close()
				if oneShot {
					// Answer one job, then hang up like a power-cycling node.
					var scratch []byte
					req, err := ReadRequest(bufio.NewReader(c), &scratch)
					if err == nil {
						WriteResponse(bufio.NewWriter(c), req, Response{Output: req.Args}) //nolint:errcheck
					}
					return
				}
				ServeLoop(c, func(req Request) Response { return Response{Output: req.Args} }) //nolint:errcheck
			}(conn)
		}
	}()
	c := NewConn(ln.Addr().String())
	defer c.Close()
	if _, err := c.Invoke(Request{JobID: 1, Function: "x"}, 5*time.Second); err != nil {
		t.Fatalf("first invoke: %v", err)
	}
	// Wait for the read loop to observe the hangup and detach the dead
	// connection, so the next invoke deterministically takes the redial
	// path (invoking mid-race exercises the stale-conn retry instead,
	// which is fine in production but makes assertions flaky).
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		detached := c.conn == nil
		c.mu.Unlock()
		if detached {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("read loop never noticed the peer hangup")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := c.Invoke(Request{JobID: 2, Function: "x", Args: []byte(`"back"`)}, 5*time.Second)
	if err != nil {
		t.Fatalf("invoke after hangup: %v", err)
	}
	if string(resp.Output) != `"back"` {
		t.Fatalf("post-hangup output = %s", resp.Output)
	}
}

// TestConnClosedRefusesInvokes locks in the terminal state: Close settles
// the connection and every later invoke fails fast.
func TestConnClosedRefusesInvokes(t *testing.T) {
	addr := loopWorker(t)
	c := NewConn(addr)
	if _, err := c.Invoke(Request{JobID: 1, Function: "x"}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Invoke(Request{JobID: 2, Function: "x"}, 5*time.Second); err == nil {
		t.Fatal("closed conn accepted an invoke")
	}
}

// TestConnTimeoutSettlesSiblings is the regression test for stranded
// siblings: one call's timeout tears the connection down, and every other
// call in flight on it must settle with an error then — not at its own
// timeout, and not never when it has none.
func TestConnTimeoutSettlesSiblings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration
	}{
		{"sibling with a timeout", 2 * time.Second},
		{"sibling without a timeout", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, recvd := silentThenEchoWorker(t)
			c := NewConn(addr)
			defer c.Close()
			start := time.Now()
			sibling := make(chan error, 1)
			go func() {
				_, err := c.Invoke(Request{JobID: 1, Function: "x"}, tc.timeout)
				sibling <- err
			}()
			<-recvd // the sibling is in flight on the silent connection
			if _, err := c.Invoke(Request{JobID: 2, Function: "x"}, 100*time.Millisecond); err == nil {
				t.Fatal("silent worker did not time out")
			}
			select {
			case err := <-sibling:
				if err == nil {
					t.Fatal("sibling succeeded on a silent connection")
				}
				if tc.timeout > 0 && time.Since(start) >= tc.timeout {
					t.Fatalf("sibling settled only at its own timeout: %v", err)
				}
			case <-time.After(time.Second):
				t.Fatal("sibling stranded: the timeout's teardown never settled it")
			}
		})
	}
}

package wire

import (
	"bufio"
	"errors"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoServer returns a listening Server that answers every payload frame
// with the same payload, and the count of handlers currently inside Serve.
func echoServer(t *testing.T) (*Server, string, *atomic.Int32) {
	t.Helper()
	var active atomic.Int32
	echo := ServeJSON(func(p payload) payload { return p })
	s := &Server{Name: "echo", Serve: func(r *bufio.Reader, w *bufio.Writer) {
		active.Add(1)
		defer active.Add(-1)
		echo(r, w)
	}}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() }) //nolint:errcheck
	return s, addr, &active
}

// within fails the test if f has not returned after d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

func TestServerCloseIsIdempotentAndUnblocksClientMidRead(t *testing.T) {
	s, addr, active := echoServer(t)
	c, err := Dial("echo", addr, 0) // no deadline: only Close can end the read
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got payload
	if err := c.Call(payload{Name: "a", N: 1}, &got); err != nil || got.N != 1 {
		t.Fatalf("echo = %+v, %v", got, err)
	}
	readErr := make(chan error, 1)
	go func() { readErr <- ReadJSON(c.r, &got) }() // nothing was asked: parks mid-read
	within(t, 2*time.Second, "Close", func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	if n := active.Load(); n != 0 {
		t.Fatalf("Close returned with %d handlers still serving", n)
	}
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("read parked on a closed server succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close left a client blocked mid-read")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestServerListenAfterCloseErrors(t *testing.T) {
	s := &Server{Name: "echo", Serve: func(*bufio.Reader, *bufio.Writer) {}}
	if err := s.Close(); err != nil { // never listened: nothing to close
		t.Fatal(err)
	}
	_, err := s.Listen("127.0.0.1:0")
	if err == nil || !strings.Contains(err.Error(), "echo: server already closed") {
		t.Fatalf("listen after close = %v, want the named already-closed error", err)
	}
	if _, err := (&Server{Name: "echo"}).Listen("not-an-address"); err == nil || !strings.HasPrefix(err.Error(), "echo: listen: ") {
		t.Fatalf("bad address = %v, want the named listen error", err)
	}
}

// TestServerServeOnAfterCloseRefusesAndClosesListener: a closed server
// serves nothing on a listener it is handed, and closes it, so a dial is
// refused rather than left in the backlog.
func TestServerServeOnAfterCloseRefusesAndClosesListener(t *testing.T) {
	s := &Server{Name: "echo", Serve: func(*bufio.Reader, *bufio.Writer) {}}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	err = s.ServeOn(ln)
	if err == nil || !strings.Contains(err.Error(), "echo: server already closed") {
		t.Fatalf("ServeOn after close = %v, want the named already-closed error", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("listener handed to a closed server: accept = %v, want it closed", err)
	}
}

// TestServerCloseEndsServeOnAcceptLoop: Close ends the accept loop that
// ServeOn started on the caller's listener, and closes that listener.
func TestServerCloseEndsServeOnAcceptLoop(t *testing.T) {
	s := &Server{Name: "echo", Serve: ServeJSON(func(p payload) payload { return p })}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ServeOn(ln); err != nil {
		t.Fatal(err)
	}
	c, err := Dial("echo", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got payload
	if err := c.Call(payload{Name: "a", N: 2}, &got); err != nil || got.N != 2 {
		t.Fatalf("echo = %+v, %v", got, err)
	}
	within(t, 2*time.Second, "Close", func() { s.Close() }) //nolint:errcheck
	within(t, 2*time.Second, "accept loop", s.wg.Wait)
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept after Close = %v, want the listener closed", err)
	}
}

// TestServerConnAcceptedDuringCloseIsClosedNotServed freezes the window
// between Close marking the server closed and closing its listener — the
// window in which the accept loop can still win a connection that Close's
// sweep of tracked connections has already missed.
func TestServerConnAcceptedDuringCloseIsClosedNotServed(t *testing.T) {
	var served atomic.Int32
	s := &Server{Name: "echo", Serve: func(*bufio.Reader, *bufio.Writer) { served.Add(1) }}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.ln.Close()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("late connection was left open (read: %v)", err)
	}
	within(t, 2*time.Second, "accept loop", s.wg.Wait)
	if n := served.Load(); n != 0 {
		t.Fatalf("late connection was served %d times", n)
	}
}

// TestServerCloseRacingDialsLeavesNoGoroutines closes the server while 8
// clients dial and call in a loop: whichever side of Close each accept
// lands on, every handler and the accept loop must be gone afterwards.
func TestServerCloseRacingDialsLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s, addr, active := echoServer(t)
	var clients sync.WaitGroup
	var calls atomic.Int32
	for i := 0; i < 8; i++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				c, err := Dial("echo", addr, time.Second)
				if err != nil {
					return // the listener is gone
				}
				var got payload
				err = c.Call(payload{Name: "x"}, &got)
				c.Close() //nolint:errcheck
				if err != nil {
					return // hung up on by Close
				}
				calls.Add(1)
			}
		}()
	}
	for calls.Load() < 16 { // every client is mid-loop before the close
		runtime.Gosched()
	}
	within(t, 5*time.Second, "Close", func() { s.Close() }) //nolint:errcheck
	if n := active.Load(); n != 0 {
		t.Fatalf("Close returned with %d handlers still serving", n)
	}
	within(t, 5*time.Second, "clients", clients.Wait)
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientCallDeadline pins the per-operation deadline against a server
// that accepts and then never speaks: a call fails at the dial timeout — no
// sooner, and not forever.
func TestClientCallDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // swallow the connection: never read, never reply
		}
	}()
	const timeout = 150 * time.Millisecond
	t.Run("plain call", func(t *testing.T) {
		c, err := Dial("echo", ln.Addr().String(), timeout)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		start := time.Now()
		var got payload
		within(t, timeout+2*time.Second, "Call", func() { err = c.Call(payload{}, &got) })
		if err == nil {
			t.Fatal("call against a silent server succeeded")
		}
		if waited := time.Since(start); waited < timeout {
			t.Fatalf("call failed after %v, before its %v budget", waited, timeout)
		}
	})
}

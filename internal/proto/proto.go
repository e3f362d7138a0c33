// Package proto defines the OP↔worker invocation protocol used by the live
// cluster: the orchestrator sends framed Invoke requests (function name +
// JSON arguments) and reads framed responses carrying the result and the
// worker's own timing measurements.
//
// A MicroFaaS worker is single-tenant and run-to-completion, and the
// modeled node reboots between jobs (Sec III) — but the TCP session is the
// OP's management-plane view of the node, not part of the node's
// per-job state. Conn keeps one persistent, multiplexed connection per
// worker: requests carry a connection-scoped id (RID), responses echo it,
// and in-flight calls may interleave. A broken or power-cycled connection
// fails every in-flight call exactly once and redials lazily on the next
// invoke, so the reboot-per-job execution model is untouched while the
// per-invocation dial/teardown cost disappears.
package proto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"microfaas/internal/wire"
)

// Request is an invocation order from the OP to a worker.
type Request struct {
	// RID is the connection-scoped request id used to pair responses with
	// in-flight requests on a multiplexed connection. Servers echo it
	// verbatim.
	RID int64 `json:"rid,omitempty"`
	// JobID correlates the response with the OP's queue entry.
	JobID int64 `json:"job_id"`
	// Function is the workload function name (Table I).
	Function string `json:"function"`
	// Args is the JSON argument payload.
	Args []byte `json:"args"`
	// TraceID and ParentSpan propagate the invocation's tracing context
	// (hex, per tracing.Context.Wire; empty when untraced), so the
	// worker's boot/exec spans join the OP's trace across the wire.
	// Attempt travels with them so worker-side spans carry the OP's
	// attempt number.
	TraceID    string `json:"trace_id,omitempty"`
	ParentSpan string `json:"parent_span,omitempty"`
	Attempt    int    `json:"attempt,omitempty"`
}

// Response is the worker's reply.
type Response struct {
	// RID echoes the request's connection-scoped id.
	RID   int64 `json:"rid,omitempty"`
	JobID int64 `json:"job_id"`
	// Output is the function's JSON result (nil on error).
	Output []byte `json:"output,omitempty"`
	// Err is the failure message ("" on success).
	Err string `json:"err,omitempty"`
	// BootMs, OverheadMs, ExecMs are the worker's own timing split, in
	// fractional milliseconds (the paper's workers timestamp themselves).
	BootMs     float64 `json:"boot_ms"`
	OverheadMs float64 `json:"overhead_ms"`
	ExecMs     float64 `json:"exec_ms"`
}

// Boot returns the boot time as a duration.
func (r Response) Boot() time.Duration { return msToDur(r.BootMs) }

// Overhead returns the network/protocol overhead as a duration.
func (r Response) Overhead() time.Duration { return msToDur(r.OverheadMs) }

// Exec returns the execution time as a duration.
func (r Response) Exec() time.Duration { return msToDur(r.ExecMs) }

func msToDur(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// invokeResult is what a waiting call receives: the matched response or
// the connection-level error that killed it.
type invokeResult struct {
	resp Response
	err  error
}

// errStaleConn marks a write failure on a connection that was reused from
// a previous invoke: the peer may simply have hung up between calls, so
// the invoke is safe to retry once on a fresh dial (the request never
// completed its frame, so the worker never started the job).
var errStaleConn = errors.New("proto: stale connection")

// Conn is a persistent, multiplexed client connection to one worker. The
// zero value is not usable; construct with NewConn. All methods are safe
// for concurrent use: any number of goroutines may Invoke over the same
// Conn and responses are paired to callers by RID.
//
// The connection dials lazily on first use and redials after any failure
// (read error, invoke timeout, Reset). Failure handling is all-or-nothing:
// a connection-level error settles every in-flight invoke exactly once
// with that error, and the next invoke starts clean.
type Conn struct {
	addr string

	mu      sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer
	pending map[int64]chan invokeResult
	nextRID int64
	closed  bool
}

// NewConn returns a Conn for the worker at addr. No I/O happens until the
// first Invoke.
func NewConn(addr string) *Conn {
	return &Conn{addr: addr, pending: make(map[int64]chan invokeResult)}
}

// Invoke performs one invocation over the persistent connection, with
// timeout covering dial (when the connection is down) + full round trip.
// A write failure on a reused connection — the worker hung up between
// jobs — is retried once on a fresh dial; every other failure is
// returned as-is. A timeout tears the connection down: a request with no
// response leaves the stream's health unknown, and the lazy redial is
// cheaper than trusting it.
func (c *Conn) Invoke(req Request, timeout time.Duration) (Response, error) {
	resp, err := c.invokeOnce(req, timeout)
	if errors.Is(err, errStaleConn) {
		resp, err = c.invokeOnce(req, timeout)
	}
	if err != nil {
		return Response{}, err
	}
	if resp.JobID != req.JobID {
		return Response{}, fmt.Errorf("proto: response for job %d, expected %d", resp.JobID, req.JobID)
	}
	return resp, nil
}

// invokeOnce registers the call, writes the request frame, and waits for
// the reader goroutine (or a connection failure) to settle it.
func (c *Conn) invokeOnce(req Request, timeout time.Duration) (Response, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Response{}, fmt.Errorf("proto: connection to %s is closed", c.addr)
	}
	reused := c.conn != nil
	if !reused {
		dialTimeout := timeout
		if dialTimeout <= 0 {
			dialTimeout = 30 * time.Second
		}
		conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
		if err != nil {
			c.mu.Unlock()
			return Response{}, fmt.Errorf("proto: dial %s: %w", c.addr, err)
		}
		c.conn = conn
		c.bw = bufio.NewWriter(conn)
		go c.readLoop(conn)
	}
	conn := c.conn
	c.nextRID++
	req.RID = c.nextRID
	ch := make(chan invokeResult, 1)
	c.pending[req.RID] = ch
	err := wire.WriteJSON(c.bw, req)
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		delete(c.pending, req.RID)
		c.teardownLocked(conn, fmt.Errorf("proto: send to %s: %w", c.addr, err))
		c.mu.Unlock()
		if reused {
			return Response{}, fmt.Errorf("%w: %v", errStaleConn, err)
		}
		return Response{}, fmt.Errorf("proto: send to %s: %w", c.addr, err)
	}
	c.mu.Unlock()

	if timeout <= 0 {
		r := <-ch
		return r.resp, r.err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-timer.C:
	}
	// Timed out. If the call is still registered, withdraw it and kill the
	// connection (its stream now carries an orphaned response). If it is
	// gone, a settle is already in flight on the buffered channel — take
	// that result instead of inventing a timeout.
	c.mu.Lock()
	if _, ok := c.pending[req.RID]; ok {
		delete(c.pending, req.RID)
		c.teardownLocked(conn, fmt.Errorf("proto: invoke timed out after %v", timeout))
		c.mu.Unlock()
		return Response{}, fmt.Errorf("proto: invoke %s: timed out after %v", c.addr, timeout)
	}
	c.mu.Unlock()
	r := <-ch
	return r.resp, r.err
}

// readLoop pairs response frames with pending calls until the connection
// dies, then fails whatever is still in flight.
func (c *Conn) readLoop(conn net.Conn) {
	br := bufio.NewReader(conn)
	var scratch []byte
	for {
		var resp Response
		if err := wire.ReadJSONInto(br, &resp, &scratch); err != nil {
			c.fail(conn, fmt.Errorf("proto: recv from %s: %w", c.addr, err))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.RID]
		if ok {
			delete(c.pending, resp.RID)
		}
		c.mu.Unlock()
		if ok {
			ch <- invokeResult{resp: resp}
		}
		// An unmatched RID is a late response to a withdrawn (timed-out)
		// call: drop it.
	}
}

// fail tears down conn (if it is still the active connection) and settles
// every in-flight call with err.
func (c *Conn) fail(conn net.Conn, err error) {
	c.mu.Lock()
	waiters := c.teardownLocked(conn, err)
	c.mu.Unlock()
	for _, ch := range waiters {
		ch <- invokeResult{err: err}
	}
}

// teardownLocked detaches conn if it is current, closes it, and returns
// the calls to settle (the caller must deliver err to each outside the
// lock). A conn that has already been replaced is just closed.
func (c *Conn) teardownLocked(conn net.Conn, err error) []chan invokeResult {
	conn.Close() //nolint:errcheck // teardown
	if c.conn != conn {
		return nil
	}
	c.conn = nil
	c.bw = nil
	if len(c.pending) == 0 {
		return nil
	}
	waiters := make([]chan invokeResult, 0, len(c.pending))
	for _, ch := range c.pending {
		waiters = append(waiters, ch)
	}
	c.pending = make(map[int64]chan invokeResult)
	return waiters
}

// Reset drops the current connection, failing every in-flight invoke with
// an error naming reason. The next Invoke redials. It models the node
// side of a power-cycle: a gated-off SBC drops its TCP sessions, and the
// OP reconnects when it next powers the node up.
func (c *Conn) Reset(reason string) {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn == nil {
		return
	}
	c.fail(conn, fmt.Errorf("proto: connection to %s reset: %s", c.addr, reason))
}

// Close resets the connection and refuses all future invokes.
func (c *Conn) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.Reset("closed")
}

// ReadRequest reads one framed Request from br, reusing *scratch for the
// payload. Servers that loop over a connection hold one bufio.Reader and
// one scratch buffer for its lifetime and read every request with zero
// steady-state allocations.
func ReadRequest(br *bufio.Reader, scratch *[]byte) (Request, error) {
	var req Request
	if err := wire.ReadJSONInto(br, &req, scratch); err != nil {
		return Request{}, fmt.Errorf("proto: read request: %w", err)
	}
	return req, nil
}

// WriteResponse stamps resp with req's correlation ids (RID and JobID) and
// writes it to bw as one flushed frame.
func WriteResponse(bw *bufio.Writer, req Request, resp Response) error {
	resp.RID = req.RID
	resp.JobID = req.JobID
	if err := wire.WriteJSON(bw, resp); err != nil {
		return fmt.Errorf("proto: write response: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("proto: write response: %w", err)
	}
	return nil
}

// ServeLoop handles invocations on conn sequentially until the peer hangs
// up (returns nil) or the connection errors. The worker is single-tenant:
// one request is read, handled, and answered before the next is read, so
// a multiplexing client's interleaved requests queue in the stream.
func ServeLoop(conn net.Conn, handle func(Request) Response) error {
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var scratch []byte
	for {
		req, err := ReadRequest(br, &scratch)
		if err != nil {
			// A hang-up between frames (clean EOF or a closed socket) is
			// the normal end of a session, not a protocol failure.
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if err := WriteResponse(bw, req, handle(req)); err != nil {
			return err
		}
	}
}

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
// call, so the reboot-per-job execution model is untouched while the
// per-invocation dial/teardown cost disappears.
//
// # Frame
//
// A frame is wire's 4-byte big-endian body length (at most wire.MaxFrame)
// followed by a binary body, every number big-endian:
//
//	bytes   request              response
//	1       kind 'Q'             kind 'R'
//	8       RID                  RID
//	8       JobID                JobID
//	8                            BootMs (float64 bits)
//	8                            OverheadMs (float64 bits)
//	8                            ExecMs (float64 bits)
//	4 + n   Function             Err
//	rest    Args                 Output
//
// Each string is a uint32 length n and its n bytes. The payload is the raw
// rest of the frame; an empty one decodes as nil. The kind byte makes a
// JSON peer ('{') or a crossed stream fail to decode rather than be
// misread, and a decoder checks every length against the frame before it
// slices, so a lying frame is an error, never a panic.
package proto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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
	RID int64
	// JobID correlates the response with the OP's queue entry.
	JobID int64
	// Function is the workload function name (Table I).
	Function string
	// Args is the JSON argument payload.
	Args []byte
}

// Response is the worker's reply.
type Response struct {
	// RID echoes the request's connection-scoped id.
	RID   int64
	JobID int64
	// Output is the function's JSON result (nil on error).
	Output []byte
	// Err is the failure message ("" on success).
	Err string
	// BootMs, OverheadMs, ExecMs are the worker's own timing split, in
	// fractional milliseconds (the paper's workers timestamp themselves).
	BootMs     float64
	OverheadMs float64
	ExecMs     float64
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

// errStaleConn marks a write failure on a connection that was reused from
// a previous call: the peer may simply have hung up between calls, so the
// call is safe to retry once on a fresh dial (the request never completed
// its frame, so the worker never started the job).
var errStaleConn = errors.New("proto: stale connection")

// dial opens a connection to a worker. Tests replace it to put faults on
// the wire.
var dial = net.DialTimeout

// call is one call in flight: the job its reply must name, and the
// callback that hears how it ended.
type call struct {
	jobID int64
	done  func(Response, error)
	timer *time.Timer // runs expire; nil without a timeout
}

// settle ends cl. Only the path that withdrew cl from pending calls it, so
// done runs exactly once.
func (cl call) settle(resp Response, err error) {
	if cl.timer != nil {
		cl.timer.Stop()
	}
	cl.done(resp, err)
}

// Conn is a persistent, multiplexed client connection to one worker. The
// zero value is not usable; construct with NewConn. All methods are safe
// for concurrent use: any number of calls may be in flight over the same
// Conn and replies are paired to calls by RID.
//
// The connection dials lazily on the first call and redials after any
// failure (read error, timeout, Reset). Whoever withdraws a call from
// pending settles it: the reader when its reply arrives, its timer when
// the timeout passes, or a teardown, which withdraws every call in flight
// on a send failure, a read failure, a timeout, Reset or Close and
// settles each with that error. The next call starts clean.
type Conn struct {
	addr string

	mu      sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer
	pending map[int64]call // the calls in flight on conn, by RID
	nextRID int64
	closed  bool
}

// NewConn returns a Conn for the worker at addr. No I/O happens until the
// first call.
func NewConn(addr string) *Conn {
	return &Conn{addr: addr, pending: make(map[int64]call)}
}

// Invoke performs one call and waits for it to settle (see Go).
func (c *Conn) Invoke(req Request, timeout time.Duration) (resp Response, err error) {
	settled := make(chan struct{})
	c.Go(req, timeout, func(r Response, e error) { resp, err = r, e; close(settled) })
	<-settled
	return resp, err
}

// Go sends one call over the persistent connection and returns without
// waiting. done runs exactly once, with the worker's reply or with the
// error that ended the call, and never on the calling goroutine. timeout
// (zero = none) covers dial plus the full round trip. A send failure on a
// reused connection (the worker hung up between jobs) is retried once on a
// fresh dial. A timeout tears the connection down: a request with no reply
// leaves the stream's health unknown, and the lazy redial is cheaper than
// trusting it.
func (c *Conn) Go(req Request, timeout time.Duration, done func(Response, error)) {
	err := c.send(req, timeout, done)
	if errors.Is(err, errStaleConn) {
		err = c.send(req, timeout, done)
	}
	if err != nil {
		go done(Response{}, err)
	}
}

// send writes the request frame and registers the call. An error means the
// call was never registered, so settling it is the caller's job.
func (c *Conn) send(req Request, timeout time.Duration, done func(Response, error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("proto: connection to %s is closed", c.addr)
	}
	reused := c.conn != nil
	if !reused {
		dialTimeout := timeout
		if dialTimeout <= 0 {
			dialTimeout = 30 * time.Second
		}
		conn, err := dial("tcp", c.addr, dialTimeout)
		if err != nil {
			return fmt.Errorf("proto: dial %s: %w", c.addr, err)
		}
		c.conn = conn
		c.bw = bufio.NewWriter(conn)
		go c.readLoop(conn)
	}
	c.nextRID++
	req.RID = c.nextRID
	if err := WriteRequest(c.bw, req); err != nil {
		c.teardownLocked(c.conn, fmt.Errorf("proto: send to %s: %w", c.addr, err))
		if reused {
			return fmt.Errorf("%w: %v", errStaleConn, err)
		}
		return fmt.Errorf("proto: send to %s: %w", c.addr, err)
	}
	cl := call{jobID: req.JobID, done: done}
	if timeout > 0 {
		rid := req.RID
		cl.timer = time.AfterFunc(timeout, func() { c.expire(rid, timeout) })
	}
	c.pending[req.RID] = cl
	return nil
}

// expire ends call rid if it is still in flight when its timeout passes,
// and tears its connection down: the stream now owes a reply nobody awaits.
func (c *Conn) expire(rid int64, timeout time.Duration) {
	c.mu.Lock()
	cl, ok := c.pending[rid]
	if !ok {
		c.mu.Unlock()
		return // settled first
	}
	delete(c.pending, rid)
	c.teardownLocked(c.conn, fmt.Errorf("proto: connection to %s dropped: a call timed out after %v", c.addr, timeout))
	c.mu.Unlock()
	cl.settle(Response{}, fmt.Errorf("proto: invoke %s: timed out after %v", c.addr, timeout))
}

// readLoop settles each call as its reply arrives, until conn fails or is
// replaced. A reply that names no call in flight, or the wrong job, means
// the stream can no longer be trusted, and it is torn down like a read
// failure.
func (c *Conn) readLoop(conn net.Conn) {
	br := bufio.NewReader(conn)
	var scratch []byte
	for {
		resp, err := ReadResponse(br, &scratch)
		c.mu.Lock()
		if c.conn != conn {
			c.mu.Unlock()
			return // torn down, and its calls with it
		}
		cl, ok := c.pending[resp.RID]
		switch {
		case err != nil:
			c.teardownLocked(conn, fmt.Errorf("proto: recv from %s: %w", c.addr, err))
		case !ok || cl.jobID != resp.JobID:
			c.teardownLocked(conn, fmt.Errorf("proto: response for job %d (rid %d) from %s matches no call in flight", resp.JobID, resp.RID, c.addr))
		default:
			delete(c.pending, resp.RID)
			c.mu.Unlock()
			cl.settle(resp, nil)
			continue
		}
		c.mu.Unlock()
		return
	}
}

// teardownLocked closes conn and, if it is still the current connection,
// detaches it and withdraws every call in flight on it. Those calls settle
// with err on a fresh goroutine, because the caller holds c.mu and a done
// may call Go. A conn that was already replaced is just closed.
func (c *Conn) teardownLocked(conn net.Conn, err error) {
	conn.Close() //nolint:errcheck // teardown
	if c.conn != conn {
		return
	}
	c.conn = nil
	c.bw = nil
	if len(c.pending) == 0 {
		return
	}
	calls := c.pending
	c.pending = make(map[int64]call)
	go func() {
		for _, cl := range calls {
			cl.settle(Response{}, err)
		}
	}()
}

// Reset drops the current connection, failing every call in flight with an
// error naming reason. The next call redials. It models the node side of a
// power-cycle: a gated-off SBC drops its TCP sessions, and the OP
// reconnects when it next powers the node up.
func (c *Conn) Reset(reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		c.teardownLocked(c.conn, fmt.Errorf("proto: connection to %s reset: %s", c.addr, reason))
	}
}

// Close resets the connection and refuses all future calls.
func (c *Conn) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.Reset("closed")
}

// The kind byte that opens every frame body.
const (
	kindRequest  byte = 'Q'
	kindResponse byte = 'R'
)

// The bytes of a body before its strings' and payload's own: the kind, the
// fixed-width fields and one uint32 length per string.
const (
	requestHead  = 1 + 2*8 + 4
	responseHead = 1 + 5*8 + 4
)

// WriteRequest writes req to bw as one flushed frame: the client half of
// the exchange ReadRequest and WriteResponse serve, and what Conn sends.
// Its errors are the writer's or the frame limit's, unwrapped: the caller
// names the peer.
func WriteRequest(bw *bufio.Writer, req Request) error {
	size := requestHead + len(req.Function) + len(req.Args)
	if err := checkSize(size); err != nil {
		return err
	}
	b := binary.BigEndian.AppendUint32(bw.AvailableBuffer(), uint32(size))
	b = append(b, kindRequest)
	b = binary.BigEndian.AppendUint64(b, uint64(req.RID))
	b = binary.BigEndian.AppendUint64(b, uint64(req.JobID))
	b = appendString(b, req.Function)
	return flushFrame(bw, b, req.Args)
}

// ReadRequest reads one framed Request from br, reusing *scratch for the
// frame. Servers that loop over a connection hold one bufio.Reader and one
// scratch buffer for its lifetime. Nothing in the Request aliases scratch.
func ReadRequest(br *bufio.Reader, scratch *[]byte) (Request, error) {
	body, err := wire.ReadFrame(br, scratch)
	var req Request
	if err == nil {
		req, err = decodeRequest(body)
	}
	if err != nil {
		return Request{}, fmt.Errorf("proto: read request: %w", err)
	}
	return req, nil
}

// WriteResponse stamps resp with req's correlation ids (RID and JobID) and
// writes it to bw as one flushed frame.
func WriteResponse(bw *bufio.Writer, req Request, resp Response) error {
	size := responseHead + len(resp.Err) + len(resp.Output)
	if err := checkSize(size); err != nil {
		return fmt.Errorf("proto: write response: %w", err)
	}
	b := binary.BigEndian.AppendUint32(bw.AvailableBuffer(), uint32(size))
	b = append(b, kindResponse)
	b = binary.BigEndian.AppendUint64(b, uint64(req.RID))
	b = binary.BigEndian.AppendUint64(b, uint64(req.JobID))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(resp.BootMs))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(resp.OverheadMs))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(resp.ExecMs))
	b = appendString(b, resp.Err)
	if err := flushFrame(bw, b, resp.Output); err != nil {
		return fmt.Errorf("proto: write response: %w", err)
	}
	return nil
}

// ReadResponse reads one framed Response from br, reusing *scratch for the
// frame, as ReadRequest does. Its errors are the reader's or the decoder's,
// unwrapped: the caller names the peer.
func ReadResponse(br *bufio.Reader, scratch *[]byte) (Response, error) {
	body, err := wire.ReadFrame(br, scratch)
	if err != nil {
		return Response{}, err
	}
	return decodeResponse(body)
}

func checkSize(size int) error {
	if size > wire.MaxFrame {
		return fmt.Errorf("frame of %d bytes exceeds the %d-byte limit", size, wire.MaxFrame)
	}
	return nil
}

func appendString(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...)
}

// flushFrame writes a frame's head, built in bw's free buffer, then its
// payload, and flushes. A failed write sticks to bw, so Flush reports it.
func flushFrame(bw *bufio.Writer, head, payload []byte) error {
	bw.Write(head)    //nolint:errcheck // reported by Flush
	bw.Write(payload) //nolint:errcheck // reported by Flush
	return bw.Flush()
}

func decodeRequest(body []byte) (Request, error) {
	d := decoder{b: body}
	d.kind(kindRequest)
	var req Request
	req.RID = d.int64("RID")
	req.JobID = d.int64("JobID")
	req.Function = d.string("Function")
	req.Args = d.rest()
	if d.err != nil {
		return Request{}, d.err
	}
	return req, nil
}

func decodeResponse(body []byte) (Response, error) {
	d := decoder{b: body}
	d.kind(kindResponse)
	var resp Response
	resp.RID = d.int64("RID")
	resp.JobID = d.int64("JobID")
	resp.BootMs = math.Float64frombits(uint64(d.int64("BootMs")))
	resp.OverheadMs = math.Float64frombits(uint64(d.int64("OverheadMs")))
	resp.ExecMs = math.Float64frombits(uint64(d.int64("ExecMs")))
	resp.Err = d.string("Err")
	resp.Output = d.rest()
	if d.err != nil {
		return Response{}, d.err
	}
	return resp, nil
}

// decoder walks one frame body, which aliases the read scratch: every field
// it returns is a copy. The first field that runs past the body sets err,
// and every read after it yields a zero value.
type decoder struct {
	b   []byte
	err error
}

// take returns the body's next n bytes, or nil once it has run out.
func (d *decoder) take(n uint64, field string) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("%s needs %d bytes, the frame has %d left", field, n, len(d.b))
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) kind(want byte) {
	if k := d.take(1, "kind"); k != nil && k[0] != want {
		d.err = fmt.Errorf("frame of kind %q where %q is due", k[0], want)
	}
}

func (d *decoder) int64(field string) int64 {
	b := d.take(8, field)
	if b == nil {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

func (d *decoder) string(field string) string {
	n := d.take(4, field)
	if n == nil {
		return ""
	}
	return string(d.take(uint64(binary.BigEndian.Uint32(n)), field))
}

// rest copies out the payload: the rest of the body, nil when empty.
func (d *decoder) rest() []byte {
	if d.err != nil || len(d.b) == 0 {
		return nil
	}
	return append([]byte(nil), d.b...)
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

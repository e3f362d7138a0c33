package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// wireFault is one way the wire between the OP and a worker misbehaves.
type wireFault int

const (
	faultStall        wireFault = iota // the reply never comes: the read blocks past every timeout
	faultTruncate                      // half a reply frame, then the stream ends
	faultRST                           // the peer resets the connection
	faultHalfClose                     // the peer shuts its write side: reads see EOF, writes still land
	faultUnknownRID                    // a reply names a call that was never made
	faultWrongJob                      // a reply pairs with its call but names another job
	faultErrPastFrame                  // a reply's Err length runs past the end of its frame
	faultWrongKind                     // a request arrives where a reply is due
)

// faultConn is the OP's end of a worker connection. It hands the worker's
// reply frames through intact until frame at, where fault strikes; once a
// fault has ended the stream, every later read fails the same way.
type faultConn struct {
	net.Conn
	fault wireFault
	at    int
	br    *bufio.Reader
	frame []byte // scratch for the worker's reply frames
	n     int    // reply frames read so far
	buf   []byte // the current frame's bytes not yet delivered
	err   error  // what every read returns once buf drains
	stop  chan struct{}
	once  sync.Once
}

func newFaultConn(conn net.Conn, fault wireFault, at int) *faultConn {
	return &faultConn{Conn: conn, fault: fault, at: at, br: bufio.NewReader(conn), stop: make(chan struct{})}
}

func (f *faultConn) Read(p []byte) (int, error) {
	for len(f.buf) == 0 {
		if f.err != nil {
			return 0, f.err
		}
		f.err = f.next()
	}
	n := copy(p, f.buf)
	f.buf = f.buf[n:]
	return n, nil
}

// next reads the worker's next reply into buf, striking when its turn
// comes. An error ends the stream once buf drains.
func (f *faultConn) next() error {
	resp, err := ReadResponse(f.br, &f.frame)
	if err != nil {
		return err
	}
	hit := f.n == f.at
	f.n++
	if hit {
		switch f.fault {
		case faultStall:
			<-f.stop
			return net.ErrClosed
		case faultRST:
			return &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
		case faultHalfClose:
			return io.EOF
		case faultUnknownRID:
			resp.RID += 1 << 20
		case faultWrongJob:
			resp.JobID += 1 << 20
		}
	}
	var b bytes.Buffer
	bw := bufio.NewWriter(&b)
	ids := Request{RID: resp.RID, JobID: resp.JobID}
	if hit && f.fault == faultWrongKind {
		ids.Function = "echo"
		err = WriteRequest(bw, ids)
	} else {
		err = WriteResponse(bw, ids, resp)
	}
	if err != nil {
		return err
	}
	f.buf = b.Bytes()
	if hit && f.fault == faultErrPastFrame {
		// The Err length is the last word of the response head.
		binary.BigEndian.PutUint32(f.buf[4+responseHead-4:], uint32(len(f.buf)))
	}
	if hit && f.fault == faultTruncate {
		f.buf = f.buf[:len(f.buf)/2]
		return io.ErrUnexpectedEOF
	}
	return nil
}

func (f *faultConn) Close() error {
	f.once.Do(func() { close(f.stop) })
	return f.Conn.Close()
}

// TestConnHostileWire puts K calls in flight on a connection whose wire
// misbehaves once, at a seeded reply. Whatever the fault, every done runs
// exactly once, a success carries its own reply, the next call redials and
// succeeds, and after Close no goroutine outlives the Conn.
func TestConnHostileWire(t *testing.T) {
	const k = 4
	for _, tc := range []struct {
		name  string
		fault wireFault
	}{
		{"stall past the timeout", faultStall},
		{"truncation mid-frame", faultTruncate},
		{"RST", faultRST},
		{"half-close", faultHalfClose},
		{"unknown RID", faultUnknownRID},
		{"wrong JobID", faultWrongJob},
		{"Err length past the frame", faultErrPastFrame},
		{"a request where a reply is due", faultWrongKind},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				addr := loopWorker(t)
				before := runtime.NumGoroutine()
				at := rand.New(rand.NewSource(seed)).Intn(k)
				var dials atomic.Int32
				old := dial
				dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
					conn, err := net.DialTimeout(network, addr, timeout)
					if err != nil || dials.Add(1) > 1 {
						return conn, err // every redial gets a clean wire
					}
					return newFaultConn(conn, tc.fault, at), nil
				}
				t.Cleanup(func() { dial = old })

				c := NewConn(addr)
				var runs [k]atomic.Int32
				type outcome struct {
					i   int
					out string
					err error
				}
				settled := make(chan outcome, k)
				for i := 0; i < k; i++ {
					c.Go(Request{JobID: int64(i + 1), Function: "echo", Args: []byte(fmt.Sprintf(`"call %d"`, i))},
						500*time.Millisecond, func(resp Response, err error) {
							runs[i].Add(1)
							settled <- outcome{i, string(resp.Output), err}
						})
				}
				failed := 0
				for n := 0; n < k; n++ {
					select {
					case o := <-settled:
						if o.err != nil {
							failed++
						} else if want := fmt.Sprintf(`"call %d"`, o.i); o.out != want {
							t.Errorf("call %d succeeded with %s, want %s", o.i, o.out, want)
						}
					case <-time.After(5 * time.Second):
						t.Fatalf("only %d of %d calls settled", n, k)
					}
				}
				if failed == 0 {
					t.Error("the fault failed no call")
				}

				resp, err := c.Invoke(Request{JobID: 99, Function: "echo", Args: []byte(`"after"`)}, 5*time.Second)
				if err != nil || string(resp.Output) != `"after"` {
					t.Fatalf("next call: %q, %v", resp.Output, err)
				}
				if n := dials.Load(); n < 2 {
					t.Fatalf("next call did not redial (%d dials)", n)
				}

				c.Close()
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before {
					if time.Now().After(deadline) {
						buf := make([]byte, 1<<16)
						t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
					}
					time.Sleep(5 * time.Millisecond)
				}
				for i := range runs {
					if n := runs[i].Load(); n != 1 {
						t.Errorf("call %d settled %d times", i, n)
					}
				}
			})
		}
	}
}

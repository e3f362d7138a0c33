package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// serveWorker accepts connections and serves each with ServeLoop.
func serveWorker(t *testing.T, handle func(Request) Response) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				ServeLoop(c, handle) //nolint:errcheck
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// echoWorker echoes args back as output with fixed timings.
func echoWorker(t *testing.T) string {
	return serveWorker(t, func(req Request) Response {
		if req.Function == "fail" {
			return Response{Err: "requested failure"}
		}
		return Response{Output: req.Args, BootMs: 1510, OverheadMs: 42.5, ExecMs: 100}
	})
}

// invoke performs one invocation over a fresh Conn to addr.
func invoke(addr string, req Request, timeout time.Duration) (Response, error) {
	c := NewConn(addr)
	defer c.Close()
	return c.Invoke(req, timeout)
}

func TestInvokeRoundTrip(t *testing.T) {
	addr := echoWorker(t)
	args := []byte(`{"rounds":3}`)
	resp, err := invoke(addr, Request{JobID: 9, Function: "CascSHA", Args: args}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.JobID != 9 || !bytes.Equal(resp.Output, args) {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Boot() != 1510*time.Millisecond {
		t.Fatalf("Boot = %v", resp.Boot())
	}
	if resp.Overhead() != 42500*time.Microsecond {
		t.Fatalf("Overhead = %v", resp.Overhead())
	}
	if resp.Exec() != 100*time.Millisecond {
		t.Fatalf("Exec = %v", resp.Exec())
	}
}

func TestInvokeCarriesWorkerError(t *testing.T) {
	addr := echoWorker(t)
	resp, err := invoke(addr, Request{JobID: 1, Function: "fail"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Fatal("worker error lost in transit")
	}
}

func TestInvokeDialFailure(t *testing.T) {
	if _, err := invoke("127.0.0.1:1", Request{JobID: 1, Function: "x"}, 200*time.Millisecond); err == nil {
		t.Fatal("invoking a dead address succeeded")
	}
}

func TestInvokeTimeout(t *testing.T) {
	// A listener that accepts but never replies.
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
			defer conn.Close()
			select {} // hold the connection open silently
		}
	}()
	start := time.Now()
	_, err = invoke(ln.Addr().String(), Request{JobID: 1, Function: "x"}, 150*time.Millisecond)
	if err == nil {
		t.Fatal("silent worker did not time out")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout took far too long")
	}
}

// encode returns the bytes write puts on the wire.
func encode(t testing.TB, write func(*bufio.Writer) error) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := write(bufio.NewWriter(&b)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestServeRejectsGarbage feeds a worker frames that are not requests:
// each ends the session with an error, and none reaches the handler.
func TestServeRejectsGarbage(t *testing.T) {
	reply := encode(t, func(bw *bufio.Writer) error { return WriteResponse(bw, Request{RID: 1, JobID: 1}, Response{}) })
	longName := encode(t, func(bw *bufio.Writer) error { return WriteRequest(bw, Request{RID: 1, JobID: 1, Function: "x"}) })
	binary.BigEndian.PutUint32(longName[4+1+3*8:], 1<<20) // Function's length
	jsonBody := []byte(`{"rid":1,"job_id":1,"function":"x"}`)
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"not a frame kind", []byte{0, 0, 0, 4, 'n', 'o', 'p', 'e'}},
		{"a JSON peer", append([]byte{0, 0, 0, byte(len(jsonBody))}, jsonBody...)},
		{"a reply where a request is due", reply},
		{"Function length past the frame", longName},
		{"a frame shorter than its fixed fields", []byte{0, 0, 0, 3, kindRequest, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := net.Pipe()
			done := make(chan error, 1)
			go func() {
				done <- ServeLoop(server, func(Request) Response {
					t.Error("a garbage frame reached the handler")
					return Response{}
				})
			}()
			go func() {
				client.Write(tc.frame) //nolint:errcheck
				client.Close()
			}()
			if err := <-done; err == nil {
				t.Fatal("ServeLoop accepted a garbage frame")
			}
		})
	}
}

// TestRequestFrameCarriesNoTraceContext: a request frame holds the ids,
// the attempt, the function name and the args, and round-trips whole. No
// trace context crosses the wire: the OP renders a job's trace from its
// own records of the worker's reply.
func TestRequestFrameCarriesNoTraceContext(t *testing.T) {
	req := Request{RID: 7, JobID: 1<<40 + 3, Function: "MatMul", Args: []byte(`{"n":64,"seed":7}`), Attempt: 2}
	frame := encode(t, func(bw *bufio.Writer) error { return WriteRequest(bw, req) })
	if want := 4 + requestHead + len(req.Function) + len(req.Args); len(frame) != want {
		t.Fatalf("request frame is %d bytes, want %d: something beside the fields travels", len(frame), want)
	}
	var scratch []byte
	got, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame)), &scratch)
	if err != nil || !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip: %+v, %v; want %+v", got, err, req)
	}
	typ := reflect.TypeOf(Request{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() == reflect.String && f.Name != "Function" {
			t.Fatalf("the request frame carries string %s beside the function name", f.Name)
		}
	}
}

func TestJobIDMismatchDetected(t *testing.T) {
	// WriteResponse stamps the ids of the request it is handed, so the
	// mismatch comes from a raw listener that answers the Conn's first
	// request (rid 1) with a reply for another job.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var scratch []byte
		if _, err := ReadRequest(bufio.NewReader(conn), &scratch); err != nil {
			return
		}
		WriteResponse(bufio.NewWriter(conn), Request{RID: 1, JobID: 999}, Response{}) //nolint:errcheck
	}()
	_, err = invoke(ln.Addr().String(), Request{JobID: 1, Function: "x"}, time.Second)
	if err == nil || !strings.Contains(err.Error(), "response for job 999") {
		t.Fatalf("mismatched job id: err = %v, want the mismatch reported", err)
	}
}

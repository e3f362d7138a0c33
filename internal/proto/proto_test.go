package proto

import (
	"bytes"
	"net"
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

func TestServeRejectsGarbage(t *testing.T) {
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeLoop(server, func(Request) Response { return Response{} }) }()
	client.Write([]byte{0, 0, 0, 4, 'n', 'o', 'p', 'e'}) //nolint:errcheck
	client.Close()
	if err := <-done; err == nil {
		t.Fatal("ServeLoop accepted a garbage frame")
	}
}

func TestJobIDMismatchDetected(t *testing.T) {
	// WriteResponse forces resp.JobID = req.JobID, so the mismatch comes
	// from a raw listener that answers the Conn's first request (rid 1)
	// with a fixed frame for another job.
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
		buf := make([]byte, 1024)
		conn.Read(buf) //nolint:errcheck
		body := []byte(`{"rid":1,"job_id":999}`)
		frame := append([]byte{0, 0, 0, byte(len(body))}, body...)
		conn.Write(frame) //nolint:errcheck
	}()
	_, err = invoke(ln.Addr().String(), Request{JobID: 1, Function: "x"}, time.Second)
	if err == nil || !strings.Contains(err.Error(), "response for job 999") {
		t.Fatalf("mismatched job id: err = %v, want the mismatch reported", err)
	}
}

package node

import (
	"bufio"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/proto"
	"microfaas/internal/workload"
)

// TestLiveWorkerCloseDropsForeignConnections is the regression test for
// the untracked-connection hang: any connection on the worker's port other
// than the OP's own — a client gone idle, one that died half way through a
// frame — parks a handler in a read, and Close must close it rather than
// wait for a frame that never comes. Each stranger completes one real
// invocation first, which proves its handler is up before Close runs.
func TestLiveWorkerCloseDropsForeignConnections(t *testing.T) {
	for _, tc := range []struct {
		name string
		sent []byte
	}{
		{"idle connection", nil},
		{"half a frame", []byte{0, 0, 0, 200, 'Q'}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := StartLiveWorker(LiveWorkerConfig{ID: "live-close", Env: &workload.Env{}})
			if err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", w.addr)
			if err != nil {
				w.Close() //nolint:errcheck
				t.Fatal(err)
			}
			defer conn.Close()
			req := proto.Request{JobID: 1, Function: "CascSHA", Args: []byte(`{"rounds":1,"seed":"x"}`)}
			if err := proto.WriteRequest(bufio.NewWriter(conn), req); err != nil {
				t.Fatal(err)
			}
			var scratch []byte
			if resp, err := proto.ReadResponse(bufio.NewReader(conn), &scratch); err != nil || resp.Err != "" {
				t.Fatalf("warm-up invocation: %v %q", err, resp.Err)
			}
			if _, err := conn.Write(tc.sent); err != nil {
				t.Fatal(err)
			}
			closed := make(chan error, 1)
			go func() { closed <- w.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatalf("close: %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Close hung on a connection the worker does not own")
			}
			// The worker hung up on the stranger, not the other way round.
			conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
			if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("foreign connection still open after Close (read: %v)", err)
			}
		})
	}
}

// TestLiveWorkerRunJobAfterCloseSettlesOffCaller pins the core.Worker
// contract on a closed worker: the job settles with an error, and done
// never runs inside RunJob. A done that blocks until RunJob has returned
// would deadlock a synchronous settle.
func TestLiveWorkerRunJobAfterCloseSettlesOffCaller(t *testing.T) {
	w, err := StartLiveWorker(LiveWorkerConfig{ID: "live-closed", Env: &workload.Env{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	settled := make(chan core.Result, 1)
	returned := make(chan struct{})
	go func() {
		w.RunJob(core.Job{ID: 1, Function: "CascSHA"}, func(r core.Result) {
			<-release
			settled <- r
		})
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("RunJob settled the job inside itself")
	}
	close(release)
	select {
	case r := <-settled:
		if r.Err == "" {
			t.Fatal("a closed worker ran a job")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a job on a closed worker never settled")
	}
}

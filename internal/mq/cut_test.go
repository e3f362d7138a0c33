package mq

import (
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"microfaas/internal/wire"
)

// The tests in this file carry the names of the tests that exercised what
// PR 24 cut from the broker — consumer groups (consume, commit, committed),
// the topics listing, the long-poll wait on fetch. Each pins what a client
// of a cut feature sees now: "unknown op" through handle's default arm, and
// a fetch that answers at once whatever wait its frame asks for — with the
// consumer keeping its own position, as MQConsume always has.

// rawCall sends one frame of arbitrary JSON to the broker and returns its
// reply and how long the reply took.
func rawCall(t *testing.T, addr string, req map[string]any) (response, time.Duration) {
	t.Helper()
	c, err := wire.Dial("mq", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp response
	start := time.Now()
	if err := c.Call(req, &resp); err != nil {
		t.Fatalf("%v: %v", req, err)
	}
	return resp, time.Since(start)
}

// wantUnknownOp requires handle to refuse req by its op alone.
func wantUnknownOp(t *testing.T, s *Server, req request) {
	t.Helper()
	if got, want := s.handle(req).Error, fmt.Sprintf("mq: unknown op %q", req.Op); got != want {
		t.Fatalf("%+v: error %q, want %q", req, got, want)
	}
}

func TestCommitAndCommitted(t *testing.T) {
	s := NewServer()
	wantUnknownOp(t, s, request{Op: "commit", Topic: "t", Offset: 42})
	wantUnknownOp(t, s, request{Op: "committed", Topic: "t"})
}

func TestTopics(t *testing.T) {
	s := NewServer()
	s.handle(request{Op: "produce", Topic: "zeta"})
	wantUnknownOp(t, s, request{Op: "topics"})
}

func TestConsumeGroupAdvancesCommit(t *testing.T) {
	s := NewServer()
	for i := 0; i < 5; i++ {
		s.handle(request{Op: "produce", Topic: "t", Value: []byte{byte(i)}})
	}
	wantUnknownOp(t, s, request{Op: "consume", Topic: "t", Max: 2})
	// Nothing was consumed: the log reads the same from the start.
	if resp := s.handle(request{Op: "fetch", Topic: "t", Max: 10}); len(resp.Messages) != 5 || resp.Messages[0].Offset != 0 {
		t.Fatalf("fetch after the refused consume = %+v", resp)
	}
}

// A cut op is refused before any of its fields is looked at: what used to
// be three different validation errors is one.
func TestConsumeGroupValidation(t *testing.T) {
	s := NewServer()
	wantUnknownOp(t, s, request{Op: "consume"})
	wantUnknownOp(t, s, request{Op: "consume", Topic: "t", Max: -5})
	wantUnknownOp(t, s, request{Op: "consume", Topic: "t", Offset: -1, Max: math.MaxInt})
}

func TestConsumeGroupLongPoll(t *testing.T) {
	addr := startMQServer(t)
	resp, took := rawCall(t, addr, map[string]any{"op": "consume", "group": "g", "topic": "t", "max": 1, "wait_ms": 5000})
	if resp.Error != `mq: unknown op "consume"` || took > time.Second {
		t.Fatalf("consume with a wait: %+v after %v, want the refusal at once", resp, took)
	}
}

func TestEndToEndConsumeGroup(t *testing.T) {
	c := startMQ(t)
	for i := 0; i < 4; i++ {
		c.Produce("jobs", nil, []byte{byte(i)}) //nolint:errcheck
	}
	for _, op := range []string{"consume", "commit", "committed", "topics"} {
		if _, err := c.do(request{Op: op, Topic: "jobs", Max: 3}); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Fatalf("%s over the wire: err = %v", op, err)
		}
	}
	// The connection survived four refusals.
	if end, err := c.End("jobs"); err != nil || end != 4 {
		t.Fatalf("End = %d, %v", end, err)
	}
}

// Without groups the consumer keeps its own position: read, advance past
// the last offset seen, read on.
func TestEndToEndConsumerGroupFlow(t *testing.T) {
	c := startMQ(t)
	for i := 0; i < 3; i++ {
		c.Produce("t", nil, []byte{byte(i)}) //nolint:errcheck
	}
	pos := int64(0)
	msgs, err := c.Fetch("t", pos, 2)
	if err != nil || len(msgs) != 2 {
		t.Fatalf("Fetch = %v, %v", msgs, err)
	}
	pos = msgs[len(msgs)-1].Offset + 1
	msgs, err = c.Fetch("t", pos, 10)
	if err != nil || len(msgs) != 1 || msgs[0].Value[0] != 2 {
		t.Fatalf("remaining = %v, %v", msgs, err)
	}
	pos = msgs[0].Offset + 1
	if end, err := c.End("t"); err != nil || end != pos {
		t.Fatalf("End = %d, %v; consumer is at %d", end, err, pos)
	}
}

// Six readers page through the log by offset while a producer appends to
// it; every reader sees every message exactly once, in order. (Group
// consumers used to split the log between them; offset readers each get
// all of it.)
func TestConsumeGroupNoDuplicatesUnderConcurrency(t *testing.T) {
	b := NewBroker()
	const total = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			b.Produce("t", nil, []byte(fmt.Sprintf("%d", i))) //nolint:errcheck
		}
	}()
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := int64(0)
			for next < total {
				msgs, err := b.Fetch("t", next, 7)
				if err != nil {
					t.Error(err)
					return
				}
				for _, m := range msgs {
					if m.Offset != next || string(m.Value) != fmt.Sprintf("%d", next) {
						t.Errorf("reader at %d got offset %d value %q", next, m.Offset, m.Value)
						return
					}
					next++
				}
			}
		}()
	}
	wg.Wait()
}

// A fetch at the log's end answers empty at once; the message produced
// later is there for the next fetch. Polling is the consumer's job.
func TestFetchLongPollWakesOnProduce(t *testing.T) {
	b := NewBroker()
	if msgs, err := b.Fetch("t", 0, 1); err != nil || len(msgs) != 0 {
		t.Fatalf("Fetch on an empty log = %v, %v", msgs, err)
	}
	b.Produce("t", nil, []byte("wake")) //nolint:errcheck
	if msgs, err := b.Fetch("t", 0, 1); err != nil || len(msgs) != 1 || string(msgs[0].Value) != "wake" {
		t.Fatalf("Fetch after the produce = %v, %v", msgs, err)
	}
}

func TestEndToEndLongPollOverTCP(t *testing.T) {
	addr := startMQServer(t)
	c, producer := dialMQ(t, addr), dialMQ(t, addr)
	if msgs, err := c.Fetch("live", 0, 1); err != nil || len(msgs) != 0 {
		t.Fatalf("Fetch before the produce = %v, %v", msgs, err)
	}
	if _, err := producer.Produce("live", nil, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if msgs, err := c.Fetch("live", 0, 1); err != nil || len(msgs) != 1 || string(msgs[0].Value) != "ping" {
		t.Fatalf("Fetch after the produce = %v, %v", msgs, err)
	}
}

// A frame from a client that still asks for a wait is served as a plain
// fetch: the field is not in the protocol, so it is not read.
func TestFetchLongPollTimesOut(t *testing.T) {
	addr := startMQServer(t)
	resp, took := rawCall(t, addr, map[string]any{"op": "fetch", "topic": "quiet", "max": 1, "wait_ms": 5000})
	if resp.Error != "" || len(resp.Messages) != 0 || took > time.Second {
		t.Fatalf("fetch with wait_ms on a quiet topic: %+v after %v, want empty at once", resp, took)
	}
}

// The hostile budgets the server used to clamp are as inert as any other.
func TestClampWait(t *testing.T) {
	addr := startMQServer(t)
	for _, wait := range []any{-1, int64(math.MinInt64), int64(math.MaxInt64), 10_000_000_000, "soon"} {
		resp, took := rawCall(t, addr, map[string]any{"op": "fetch", "topic": "quiet", "max": 1, "wait_ms": wait})
		if resp.Error != "" || len(resp.Messages) != 0 || took > time.Second {
			t.Fatalf("wait_ms=%v: %+v after %v; want empty at once", wait, resp, took)
		}
	}
}

// A client's call has its dial timeout and no more: with no long poll
// there is no wait to add to it.
func TestLongPollDeadlineBudgetsWait(t *testing.T) {
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
		time.Sleep(3 * time.Second) // accept, then never speak
	}()
	const timeout = 200 * time.Millisecond
	c, err := Dial(ln.Addr().String(), timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Fetch("empty-topic", 0, 10); err == nil {
		t.Fatal("fetch against a silent broker succeeded")
	}
	if waited := time.Since(start); waited < timeout || waited > 2*time.Second {
		t.Fatalf("fetch failed after %v, want its %v timeout", waited, timeout)
	}
}

// Closing the server has nothing to wake first: it drops the connections
// and returns, and a client mid-conversation sees its next call fail.
func TestCloseWakesBlockedFetch(t *testing.T) {
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dialMQ(t, addr)
	if _, err := c.Produce("t", nil, []byte("x")); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung with an idle client connected")
	}
	if _, err := c.Fetch("t", 0, 1); err == nil {
		t.Fatal("fetch on a closed server succeeded")
	}
}

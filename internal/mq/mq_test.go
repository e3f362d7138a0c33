package mq

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// --- Broker unit tests ---

func TestProduceAssignsSequentialOffsets(t *testing.T) {
	b := NewBroker()
	for i := int64(0); i < 5; i++ {
		off, err := b.Produce("jobs", nil, []byte(fmt.Sprintf("m%d", i)))
		if err != nil || off != i {
			t.Fatalf("Produce #%d = %d, %v", i, off, err)
		}
	}
	if b.End("jobs") != 5 {
		t.Fatalf("End = %d, want 5", b.End("jobs"))
	}
}

func TestFetchFromOffset(t *testing.T) {
	b := NewBroker()
	for i := 0; i < 10; i++ {
		b.Produce("t", nil, []byte{byte(i)}) //nolint:errcheck
	}
	msgs, err := b.Fetch("t", 7, 100)
	if err != nil || len(msgs) != 3 {
		t.Fatalf("Fetch = %d msgs, %v", len(msgs), err)
	}
	if msgs[0].Offset != 7 || msgs[2].Offset != 9 {
		t.Fatalf("offsets = %d..%d", msgs[0].Offset, msgs[2].Offset)
	}
}

func TestFetchHonorsMax(t *testing.T) {
	b := NewBroker()
	for i := 0; i < 10; i++ {
		b.Produce("t", nil, nil) //nolint:errcheck
	}
	msgs, _ := b.Fetch("t", 0, 4)
	if len(msgs) != 4 {
		t.Fatalf("len = %d, want 4", len(msgs))
	}
}

func TestFetchPastEndReturnsEmptyImmediately(t *testing.T) {
	b := NewBroker()
	start := time.Now()
	msgs, err := b.Fetch("empty", 0, 1)
	if err != nil || len(msgs) != 0 {
		t.Fatalf("Fetch = %v, %v", msgs, err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("non-waiting fetch blocked")
	}
}

func TestValidation(t *testing.T) {
	b := NewBroker()
	if _, err := b.Produce("", nil, nil); err == nil {
		t.Fatal("empty topic accepted")
	}
	if _, err := b.Fetch("", 0, 1); err == nil {
		t.Fatal("empty topic accepted in fetch")
	}
	if _, err := b.Fetch("t", -1, 1); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestMessagesAreCopied(t *testing.T) {
	b := NewBroker()
	val := []byte("original")
	b.Produce("t", nil, val) //nolint:errcheck
	val[0] = 'X'
	msgs, _ := b.Fetch("t", 0, 1)
	if string(msgs[0].Value) != "original" {
		t.Fatal("Produce aliased caller's buffer")
	}
}

func TestConcurrentProducersTotalOrder(t *testing.T) {
	b := NewBroker()
	var wg sync.WaitGroup
	const producers, each = 4, 100
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := b.Produce("t", nil, []byte("m")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	msgs, err := b.Fetch("t", 0, producers*each+1)
	if err != nil || len(msgs) != producers*each {
		t.Fatalf("fetched %d, %v", len(msgs), err)
	}
	for i, m := range msgs {
		if m.Offset != int64(i) {
			t.Fatalf("offset hole at %d: %d", i, m.Offset)
		}
	}
}

// Property: producing N messages then fetching from 0 returns them in
// order with intact payloads.
func TestProduceFetchOrderProperty(t *testing.T) {
	prop := func(payloads [][]byte) bool {
		b := NewBroker()
		for _, p := range payloads {
			if _, err := b.Produce("t", nil, p); err != nil {
				return false
			}
		}
		msgs, err := b.Fetch("t", 0, len(payloads)+1)
		if err != nil || len(msgs) != len(payloads) {
			return len(payloads) == 0 && err == nil
		}
		for i, m := range msgs {
			if !bytes.Equal(m.Value, payloads[i]) || m.Offset != int64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// --- End-to-end over TCP ---

func startMQServer(t *testing.T) string {
	t.Helper()
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func dialMQ(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func startMQ(t *testing.T) *Client {
	t.Helper()
	return dialMQ(t, startMQServer(t))
}

func TestEndToEndProduceConsume(t *testing.T) {
	c := startMQ(t)
	off, err := c.Produce("orders", []byte("k1"), []byte("order-1"))
	if err != nil || off != 0 {
		t.Fatalf("Produce = %d, %v", off, err)
	}
	off, err = c.Produce("orders", nil, []byte("order-2"))
	if err != nil || off != 1 {
		t.Fatalf("Produce = %d, %v", off, err)
	}
	msgs, err := c.Fetch("orders", 0, 10)
	if err != nil || len(msgs) != 2 {
		t.Fatalf("Fetch = %v, %v", msgs, err)
	}
	if string(msgs[0].Key) != "k1" || string(msgs[1].Value) != "order-2" {
		t.Fatalf("messages corrupted: %+v", msgs)
	}
	end, err := c.End("orders")
	if err != nil || end != 2 {
		t.Fatalf("End = %d, %v", end, err)
	}
}

func TestEndToEndErrorsKeepConnection(t *testing.T) {
	c := startMQ(t)
	if _, err := c.Produce("", nil, nil); err == nil {
		t.Fatal("empty topic accepted over the wire")
	}
	if _, err := c.Produce("ok", nil, []byte("x")); err != nil {
		t.Fatalf("connection unusable after error: %v", err)
	}
	if _, err := c.Fetch("t", -5, 1); err == nil {
		t.Fatal("negative offset accepted over the wire")
	}
	if end, err := c.End("ok"); err != nil || end != 1 {
		t.Fatalf("End after the errors = %d, %v", end, err)
	}
}

package kvstore

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

// TestClientMidFrameErrorDoesNotLeakConn pairs the client with a raw
// listener that answers a SET with a truncated RESP bulk string (the
// header promises 100 bytes, two arrive) and never finishes it. The
// client must surface an error at its deadline (not wedge forever
// holding the conn), and Close must actually release the TCP connection
// — the peer proves it by observing EOF instead of a read timeout.
func TestClientMidFrameErrorDoesNotLeakConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conns := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conns <- conn
		buf := make([]byte, 4096)
		conn.Read(buf)                   //nolint:errcheck // the command; content irrelevant
		conn.Write([]byte("$100\r\nab")) //nolint:errcheck // truncated bulk string, never completed
	}()
	c, err := Dial(ln.Addr().String(), 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", []byte("v")); err == nil {
		t.Fatal("truncated reply did not error")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close after mid-frame error: %v", err)
	}
	sconn := <-conns
	defer sconn.Close()
	sconn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	buf := make([]byte, 64)
	for {
		_, rerr := sconn.Read(buf)
		if rerr == nil {
			continue
		}
		if errors.Is(rerr, os.ErrDeadlineExceeded) {
			t.Fatal("client connection still open after Close: leaked")
		}
		return // EOF or reset: the client really hung up
	}
}

package kvstore

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
)

// The tests in this file carry the names of the tests that exercised the
// commands PR 24 cut. Each sends what its predecessor's operation put on
// the wire and pins what a client of a cut command sees now: the
// unknown-command (or arity) error every unserved name has always got, and
// no side effect. The Store-level ones check dispatch's exact reply bytes;
// the EndToEnd ones go through a socket and check the connection survives.

// command splits a line ("SET k v") into a request's elements.
func command(line string) [][]byte {
	var args [][]byte
	for _, f := range strings.Fields(line) {
		args = append(args, []byte(f))
	}
	return args
}

// reply runs one command line through dispatch and returns the bytes it
// answers.
func reply(t *testing.T, s *Server, line string) string {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	s.dispatch(w, command(line))
	w.Flush()
	return buf.String()
}

func wantUnknown(t *testing.T, lines ...string) {
	t.Helper()
	s := NewServer()
	for _, line := range lines {
		name := strings.ToLower(strings.Fields(line)[0])
		if got, want := reply(t, s, line), "-ERR unknown command '"+name+"'\r\n"; got != want {
			t.Errorf("%s: reply %q, want %q", line, got, want)
		}
	}
}

func TestAppendStore(t *testing.T)    { wantUnknown(t, "APPEND k ab") }
func TestStoreDelExists(t *testing.T) { wantUnknown(t, "DEL a c", "EXISTS a b c a") }
func TestStoreIncrBy(t *testing.T) {
	wantUnknown(t, "INCR ctr", "INCRBY ctr 5", "DECR ctr", "DECRBY ctr 2")
}
func TestStoreKeysPattern(t *testing.T) { wantUnknown(t, "KEYS user:*") }
func TestStoreFlush(t *testing.T)       { wantUnknown(t, "FLUSHALL", "DBSIZE") }
func TestExpireAndTTL(t *testing.T)     { wantUnknown(t, "EXPIRE k 30", "TTL k") }

// SET's only form is "SET key value": the EX option is an arity error and
// stores nothing.
func TestSetWithTTLExpires(t *testing.T) {
	s := NewServer()
	if got, want := reply(t, s, "SET k v EX 10"), "-ERR wrong number of arguments for 'set'\r\n"; got != want {
		t.Fatalf("SET with EX: reply %q, want %q", got, want)
	}
	if v, ok := value(s.store, "k"); ok {
		t.Fatalf("rejected SET stored %q", v)
	}
}

// A rejected SET ... EX leaves the key free for the plain form.
func TestPlainSetClearsTTL(t *testing.T) {
	s := NewServer()
	reply(t, s, "SET k v1 EX 1")
	if got := reply(t, s, "SET k v2"); got != "+OK\r\n" {
		t.Fatalf("plain SET: reply %q", got)
	}
	if v, _ := value(s.store, "k"); string(v) != "v2" {
		t.Fatalf("stored %q, want v2", v)
	}
}

// Nor does it block SETNX: no expiry was ever pending on the key.
func TestSetNXSucceedsAfterExpiry(t *testing.T) {
	s := NewServer()
	reply(t, s, "SET k old EX 1")
	if got := reply(t, s, "SETNX k new"); got != ":1\r\n" {
		t.Fatalf("SETNX: reply %q", got)
	}
	if v, _ := value(s.store, "k"); string(v) != "new" {
		t.Fatalf("stored %q, want new", v)
	}
}

// rawConn is a RESP connection that can send commands the Client has no
// method for.
type rawConn struct {
	t *testing.T
	r *bufio.Reader
	w *bufio.Writer
}

func dialRaw(t *testing.T, addr string) rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return rawConn{t: t, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
}

// do sends one command line and returns the reply.
func (c rawConn) do(line string) (respValue, error) {
	c.t.Helper()
	if err := writeCommand(c.w, command(line)...); err != nil {
		return respValue{}, err
	}
	return readValue(c.r)
}

// wantErr requires an error reply containing text, and the connection
// still answering a SETNX afterwards.
func (c rawConn) wantErr(line, text string) {
	c.t.Helper()
	v, err := c.do(line)
	if err != nil || v.kind != '-' || !strings.Contains(v.str, text) {
		c.t.Fatalf("%s: got %+v, %v; want an error reply containing %q", line, v, err, text)
	}
	if v, err := c.do("SETNX alive 1"); err != nil || v.kind != ':' {
		c.t.Fatalf("connection dead after %s: %+v, %v", line, v, err)
	}
}

func TestEndToEndTTLCommands(t *testing.T) {
	srv, addr := startServer(t)
	c := dialRaw(t, addr)
	c.wantErr("SET session tok EX 30", "wrong number of arguments for 'set'")
	c.wantErr("TTL session", "unknown command 'ttl'")
	c.wantErr("EXPIRE session 60", "unknown command 'expire'")
	if v, ok := value(srv.store, "session"); ok {
		t.Fatalf("the rejected SET stored %q", v)
	}
}

func TestEndToEndMGetMSetAppend(t *testing.T) {
	_, addr := startServer(t)
	c := dialRaw(t, addr)
	c.wantErr("MSET a 1 b 2", "unknown command 'mset'")
	c.wantErr("MGET a missing b", "unknown command 'mget'")
	c.wantErr("APPEND log hello", "unknown command 'append'")
	// Past maxCommandArgs elements the request is not a served command's
	// shape at all: a protocol error, and the server hangs up.
	if v, err := c.do("MSET a 1 b 2 c 3 d 4"); err == nil {
		t.Fatalf("9-element command answered %+v; want the connection dropped", v)
	}
}

func TestEndToEndKeysAndFlush(t *testing.T) {
	srv, addr := startServer(t)
	c := dialRaw(t, addr)
	for i := 0; i < 5; i++ {
		if v, err := c.do(fmt.Sprintf("SET item:%d x", i)); err != nil || v.str != "OK" {
			t.Fatalf("SET = %+v, %v", v, err)
		}
	}
	c.wantErr("KEYS item:*", "unknown command 'keys'")
	c.wantErr("DBSIZE", "unknown command 'dbsize'")
	c.wantErr("FLUSHALL", "unknown command 'flushall'")
	for i := 0; i < 5; i++ {
		if v, ok := value(srv.store, fmt.Sprintf("item:%d", i)); !ok || string(v) != "x" {
			t.Fatalf("item:%d after the rejected FLUSHALL = %q/%v", i, v, ok)
		}
	}
}

func TestEndToEndSetNXAndExists(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)
	stored, err := c.SetNX("once", []byte("1"))
	if err != nil || !stored {
		t.Fatalf("SetNX first = %v, %v", stored, err)
	}
	stored, err = c.SetNX("once", []byte("2"))
	if err != nil || stored {
		t.Fatalf("SetNX second = %v, %v", stored, err)
	}
	if v, ok := value(srv.store, "once"); !ok || string(v) != "1" {
		t.Fatalf("stored = %q/%v, want the first value", v, ok)
	}
	dialRaw(t, addr).wantErr("EXISTS once never", "unknown command 'exists'")
}

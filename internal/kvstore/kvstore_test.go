package kvstore

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// --- Store unit tests ---

func TestStoreSetGet(t *testing.T) {
	s := NewStore()
	if existed := s.Set("k", []byte("v")); existed {
		t.Fatal("fresh key reported as existing")
	}
	if existed := s.Set("k", []byte("v2")); !existed {
		t.Fatal("overwrite not reported as existing")
	}
	v, ok := value(s, "k")
	if !ok || string(v) != "v2" {
		t.Fatalf("stored = %q/%v", v, ok)
	}
}

// No function reads a key back, so the store serves no GET: it answers
// the unknown-command error and leaves the key as it was.
func TestStoreGetReturnsCopy(t *testing.T) {
	s := NewServer()
	s.store.Set("k", []byte("abc"))
	if got, want := reply(t, s, "GET k"), "-ERR unknown command 'get'\r\n"; got != want {
		t.Fatalf("GET k: reply %q, want %q", got, want)
	}
	if v, _ := value(s.store, "k"); string(v) != "abc" {
		t.Fatalf("GET disturbed the key: %q", v)
	}
}

func TestStoreSetCopiesInput(t *testing.T) {
	s := NewStore()
	buf := []byte("abc")
	s.Set("k", buf)
	buf[0] = 'X'
	v, _ := value(s, "k")
	if string(v) != "abc" {
		t.Fatal("Set aliased caller's buffer")
	}
}

func TestStoreSetNX(t *testing.T) {
	s := NewStore()
	if !s.SetNX("k", []byte("1")) {
		t.Fatal("first SetNX should store")
	}
	if s.SetNX("k", []byte("2")) {
		t.Fatal("second SetNX should not store")
	}
	v, _ := value(s, "k")
	if string(v) != "1" {
		t.Fatal("SetNX overwrote")
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	var wins [8]int // one slot per goroutine
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%10)
				s.Set(key, []byte("v"))
				value(s, key)
				if s.SetNX(fmt.Sprintf("once%d", i), []byte{byte(g)}) {
					wins[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	// Every once-key was contended by all eight goroutines; exactly one
	// SetNX per key may have stored.
	total := 0
	for _, n := range wins {
		total += n
	}
	if total != 200 {
		t.Fatalf("SetNX stored %d times over 200 contended keys, want 200", total)
	}
}

// Property: after Set(k,v) the store holds v under k, for arbitrary binary
// values.
func TestStoreRoundTripProperty(t *testing.T) {
	s := NewStore()
	prop := func(key string, val []byte) bool {
		s.Set(key, val)
		got, ok := value(s, key)
		return ok && bytes.Equal(got, val)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// value reads key straight from the store's map, under its lock: the
// store serves no read of its own.
func value(s *Store, key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	return v, ok
}

// --- RESP parser tests ---

func respRead(t *testing.T, s string) respValue {
	t.Helper()
	v, err := readValue(bufio.NewReader(strings.NewReader(s)))
	if err != nil {
		t.Fatalf("readValue(%q): %v", s, err)
	}
	return v
}

func TestRESPParseKinds(t *testing.T) {
	if v := respRead(t, "+OK\r\n"); v.kind != '+' || v.str != "OK" {
		t.Fatalf("simple: %+v", v)
	}
	if v := respRead(t, ":42\r\n"); v.kind != ':' || v.num != 42 {
		t.Fatalf("int: %+v", v)
	}
	if v := respRead(t, "$5\r\nhello\r\n"); string(v.bulk) != "hello" {
		t.Fatalf("bulk: %+v", v)
	}
	if v := respRead(t, "$-1\r\n"); !v.null {
		t.Fatalf("null bulk: %+v", v)
	}
	if v := respRead(t, "-ERR boom\r\n"); v.kind != '-' || v.str != "ERR boom" {
		t.Fatalf("error: %+v", v)
	}
	// No served command answers with an array, so the reply reader has no
	// array case; requests are read by readCommand.
	if _, err := readValue(bufio.NewReader(strings.NewReader("*2\r\n$1\r\na\r\n:7\r\n"))); err != errProtocol {
		t.Fatalf("array reply: err = %v, want errProtocol", err)
	}
	args, err := readCommand(bufio.NewReader(strings.NewReader("*2\r\n$3\r\nGET\r\n$1\r\na\r\n")))
	if err != nil || len(args) != 2 || string(args[0]) != "GET" || string(args[1]) != "a" {
		t.Fatalf("command: %q, %v", args, err)
	}
}

func TestRESPBulkWithBinaryData(t *testing.T) {
	payload := []byte{0, 1, 2, '\r', '\n', 255}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeBulk(w, payload); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	v, err := readValue(bufio.NewReader(&buf))
	if err != nil || !bytes.Equal(v.bulk, payload) {
		t.Fatalf("binary round trip failed: %v %v", v.bulk, err)
	}
}

func TestRESPRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"?x\r\n", "$abc\r\n", ":x\r\n", "+no-terminator\n", "*1\r\n:1x\r\n"} {
		if _, err := readValue(bufio.NewReader(strings.NewReader(bad))); err == nil {
			t.Fatalf("accepted garbage %q", bad)
		}
	}
	for _, bad := range []string{
		"$3\r\nGET\r\n",           // not an array
		"*0\r\n",                  // empty command
		"*-1\r\n",                 // null array
		"*x\r\n",                  // count is not a number
		"*1\r\n:1\r\n",            // element is not a bulk string
		"*1\r\n$-1\r\n",           // null element
		"*1\r\n*1\r\n$1\r\na\r\n", // nested array
		"*2\r\n$3\r\nGET\r\n",     // fewer elements than promised
	} {
		if _, err := readCommand(bufio.NewReader(strings.NewReader(bad))); err == nil {
			t.Fatalf("readCommand accepted %q", bad)
		}
	}
}

func TestRESPRejectsOversizedBulk(t *testing.T) {
	huge := fmt.Sprintf("$%d\r\n", maxBulkLen+1)
	if _, err := readValue(bufio.NewReader(strings.NewReader(huge))); err == nil {
		t.Fatal("accepted oversized bulk length")
	}
}

// Property: any command written by writeCommand parses back identically.
func TestRESPCommandRoundTripProperty(t *testing.T) {
	prop := func(parts [][]byte) bool {
		if len(parts) == 0 {
			return true
		}
		if len(parts) > maxCommandArgs {
			parts = parts[:maxCommandArgs]
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeCommand(w, parts...); err != nil {
			return false
		}
		got, err := readCommand(bufio.NewReader(&buf))
		if err != nil || len(got) != len(parts) {
			return false
		}
		for i := range parts {
			if !bytes.Equal(got[i], parts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// --- End-to-end server/client tests ---

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestEndToEndBasicOps(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)

	if err := c.Set("greeting", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if v, ok := value(srv.store, "greeting"); !ok || string(v) != "hello" {
		t.Fatalf("stored = %q/%v", v, ok)
	}
	if err := c.Set("greeting", []byte("hello again")); err != nil {
		t.Fatal(err)
	}
	if v, ok := value(srv.store, "greeting"); !ok || string(v) != "hello again" {
		t.Fatalf("stored after overwrite = %q/%v", v, ok)
	}
	// Reads and pings are not served: refused by name on a connection that
	// stays open.
	raw := dialRaw(t, addr)
	raw.wantErr("PING", "unknown command 'ping'")
	raw.wantErr("GET greeting", "unknown command 'get'")
}

func TestEndToEndServerError(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.do([]byte("SET"), []byte("k")); err == nil || !strings.Contains(err.Error(), "wrong number of arguments for 'set'") {
		t.Fatalf("SET without a value: err = %v, want the server's arity error", err)
	}
	// The connection must survive a command error.
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatalf("connection dead after error: %v", err)
	}
}

func TestEndToEndUnknownCommand(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w, r := bufio.NewWriter(conn), bufio.NewReader(conn)
	// QUIT was a command once; like any other unknown one it is answered
	// and the connection stays open.
	for _, name := range []string{"BOGUS", "QUIT"} {
		writeCommand(w, []byte(name)) //nolint:errcheck
		v, err := readValue(r)
		if want := "ERR unknown command '" + strings.ToLower(name) + "'"; err != nil || v.kind != '-' || v.str != want {
			t.Fatalf("%s: got %+v, %v; want -%s", name, v, err, want)
		}
	}
}

func TestEndToEndConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	var wg sync.WaitGroup
	var wins atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 100; i++ {
				stored, err := c.SetNX(fmt.Sprintf("shared:%d", i), []byte("x"))
				if err != nil {
					t.Error(err)
					return
				}
				if stored {
					wins.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	// Four clients raced for each of 100 keys; one won each.
	if n := wins.Load(); n != 100 {
		t.Fatalf("SETNX stored %d times over 100 contended keys, want 100", n)
	}
}

func TestServerCloseIsIdempotentAndUnblocksClients(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", []byte("v")); err == nil {
		t.Fatal("SET succeeded after server close")
	}
}

func TestWrongArityReportsError(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := bufio.NewWriter(conn)
	writeCommand(w, []byte("SET"), []byte("only-key")) //nolint:errcheck
	v, err := readValue(bufio.NewReader(conn))
	if err != nil || v.kind != '-' || !strings.Contains(v.str, "wrong number of arguments") {
		t.Fatalf("got %+v, %v", v, err)
	}
}

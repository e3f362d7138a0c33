package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// endless serves pattern over and over — 4 MiB of it, so a reader with no
// bound of its own fails a test rather than the machine — and counts what
// it handed out.
type endless struct {
	pattern string
	served  int
}

func (e *endless) Read(p []byte) (int, error) {
	if e.served >= 4<<20 {
		return 0, io.EOF
	}
	for i := range p {
		p[i] = e.pattern[(e.served+i)%len(e.pattern)]
	}
	e.served += len(p)
	return len(p), nil
}

// A peer that never sends '\n' is refused after one buffer's worth, not
// accumulated until memory runs out (at the parent readLine was an
// unbounded ReadBytes: it buffered all the stream had).
func TestReadLineIsBounded(t *testing.T) {
	for _, read := range []struct {
		name string
		fn   func(*bufio.Reader) error
	}{
		{"readCommand", func(r *bufio.Reader) error { _, err := readCommand(r); return err }},
		{"readValue", func(r *bufio.Reader) error { _, err := readValue(r); return err }},
	} {
		src := &endless{pattern: "*1"}
		if err := read.fn(bufio.NewReader(src)); !errors.Is(err, errProtocol) {
			t.Fatalf("%s on an endless line: err = %v, want errProtocol", read.name, err)
		}
		if src.served > 8<<10 {
			t.Fatalf("%s read %d bytes looking for a line end", read.name, src.served)
		}
	}
	// The longest line the protocol admits still parses.
	ok := "+" + strings.Repeat("x", maxLineLen-1) + "\r\n"
	if v, err := readValue(bufio.NewReader(strings.NewReader(ok))); err != nil || len(v.str) != maxLineLen-1 {
		t.Fatalf("line of maxLineLen: %v", err)
	}
	over := "+" + strings.Repeat("x", maxLineLen) + "\r\n"
	if _, err := readValue(bufio.NewReader(strings.NewReader(over))); !errors.Is(err, errProtocol) {
		t.Fatalf("line over maxLineLen: err = %v, want errProtocol", err)
	}
}

// The element count is checked before anything is sized by it: the ten
// bytes "*1048576\r\n" made the parent allocate 88 MiB of respValues before
// reading one element.
func TestCommandCountAllocatesNothing(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readCommand(bufio.NewReader(strings.NewReader("*1048576\r\n")))
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("an over-cap count allocated %d bytes", grew)
	}
	if !errors.Is(err, errProtocol) {
		t.Fatalf("err = %v, want errProtocol", err)
	}
}

// Nested arrays are refused at the first inner header. The parent recursed
// once per level — 16 Mi levels overflowed the stack and killed the
// process — so this is the size-scaled form: 4,096 levels, and the reader
// must have stopped ten bytes in rather than walked to the bottom.
func TestNestedArrayRefusedAtFirstLevel(t *testing.T) {
	const header = "*1\r\n"
	input := strings.Repeat(header, 4096) + "$1\r\na\r\n"
	src := strings.NewReader(input)
	r := bufio.NewReader(src)
	if _, err := readCommand(r); !errors.Is(err, errProtocol) {
		t.Fatalf("err = %v, want errProtocol", err)
	}
	if consumed := len(input) - src.Len() - r.Buffered(); consumed > 2*len(header) {
		t.Fatalf("parser consumed %d bytes of a nested array, want it to stop at the second header (%d)", consumed, 2*len(header))
	}
}

// The input from the issue, whole, against a real server: 16 Mi x "*1\r\n"
// (80 MiB) streamed at the kv port. The server drops the connection at the
// second header, as it does for any malformed request, and keeps serving
// everyone else. At the parent this is `fatal error: stack overflow`.
func TestEndToEndDeepNestingDropsConnectionNotProcess(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	chunk := bytes.Repeat([]byte("*1\r\n"), 16<<10)    // 64 KiB
	conn.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	sent := 0
	for i := 0; i < 1024; i++ { // 1024 x 16 Ki = 16 Mi headers
		n, err := conn.Write(chunk)
		sent += n
		if err != nil {
			break // the server hung up on us: expected
		}
	}
	// Whether or not the kernel let every byte out, the server has closed
	// its end: the read sees EOF or a reset, never a reply.
	if n, err := conn.Read(make([]byte, 16)); err == nil {
		t.Fatalf("server answered %d bytes to a nested array after %d bytes sent; want the connection dropped", n, sent)
	} else if !errors.Is(err, io.EOF) && !isReset(err) {
		t.Fatalf("read after flood: %v", err)
	}
	if err := dial(t, addr).Set("alive", []byte("1")); err != nil {
		t.Fatalf("server gone after the flood: %v", err)
	}
}

func isReset(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && !op.Timeout()
}

package kvstore

import (
	"bufio"
	"bytes"
	"runtime"
	"testing"
)

// FuzzReadCommand feeds arbitrary bytes to the request parser — the one
// piece of kvstore that reads what any peer on the port sends. Oracle: it
// never panics; it never allocates from a length it has not read the bytes
// for (a command costs a small multiple of what the input holds, plus the
// reader's buffer); and what it accepts is a served shape —
// 1..maxCommandArgs non-null bulk strings that survive a round trip through
// writeCommand.
func FuzzReadCommand(f *testing.F) {
	f.Add([]byte("*1\r\n$4\r\nPING\r\n"))
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"))
	f.Add([]byte("*3\r\n$5\r\nSETNX\r\n$1\r\nk\r\n$1\r\nv\r\n"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$-1\r\n"))          // null bulk
	f.Add([]byte("*1\r\n*1\r\n$1\r\na\r\n"))             // nested array
	f.Add([]byte("*-1\r\n"))                             // negative count
	f.Add([]byte("*1048576\r\n"))                        // over-cap count
	f.Add([]byte("*1\r\n$67108864\r\nshort\r\n"))        // bulk length the stream does not back
	f.Add(bytes.Repeat([]byte("*"), 2*maxLineLen))       // header line with no end
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$1\r\nk\r\nextra")) // trailing bytes stay unread

	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		r := bufio.NewReader(src)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		args, err := readCommand(r)
		runtime.ReadMemStats(&after)
		// A bulk body is buffered by doubling, so up to ~4x its bytes; the
		// slack covers the bufio.Reader and the fuzz worker's own goroutines.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*uint64(len(data))+(64<<10) {
			t.Fatalf("parsing %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if len(args) < 1 || len(args) > maxCommandArgs {
			t.Fatalf("accepted a command of %d elements", len(args))
		}
		for i, a := range args {
			if a == nil {
				t.Fatalf("element %d is null", i)
			}
		}
		consumed := data[:len(data)-src.Len()-r.Buffered()]
		var out bytes.Buffer
		if err := writeCommand(bufio.NewWriter(&out), args...); err != nil {
			t.Fatal(err)
		}
		// "*03" and "*3" read the same; compare modulo the parse, not bytes.
		again, err := readCommand(bufio.NewReader(&out))
		if err != nil || len(again) != len(args) {
			t.Fatalf("accepted %q but its rendering does not parse back: %v", consumed, err)
		}
		for i := range args {
			if !bytes.Equal(args[i], again[i]) {
				t.Fatalf("element %d: %q re-read as %q", i, args[i], again[i])
			}
		}
	})
}

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzReadJSON throws arbitrary byte streams at the frame decoder. The
// contract under attack-shaped input (corrupt length prefixes, truncated
// bodies, malformed JSON) is: return an error, never panic, and never
// mistake a mid-frame truncation for a clean end-of-stream.
func FuzzReadJSON(f *testing.F) {
	frame := func(body string) []byte {
		var b bytes.Buffer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
		b.Write(hdr[:])
		b.WriteString(body)
		return b.Bytes()
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0})                                // truncated header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})              // length over MaxFrame
	f.Add([]byte{0, 0, 0, 10, '{', '}'})               // truncated body
	f.Add(frame(`{"op":"invoke","id":7}`))             // well-formed frame
	f.Add(frame(`not json`))                           // framed garbage
	f.Add(frame(``))                                   // zero-length body
	f.Add(append(frame(`{"a":1}`), frame(`[2,3]`)...)) // two frames back to back

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var v any
		err := ReadJSON(r, &v)
		if len(data) == 0 {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("empty stream: err = %v, want io.EOF", err)
			}
			return
		}
		if len(data) < 4 {
			// A partial header is a truncation, not a clean EOF: callers
			// use io.EOF to mean "peer closed between frames".
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("partial header: err = %v, want ErrUnexpectedEOF", err)
			}
			if err == nil {
				t.Fatal("partial header decoded successfully")
			}
			return
		}
		n := binary.BigEndian.Uint32(data[:4])
		if n <= MaxFrame && uint64(len(data)-4) < uint64(n) {
			if err == nil {
				t.Fatalf("truncated body (%d of %d bytes) decoded successfully", len(data)-4, n)
			}
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("truncated body: err = %v, want ErrUnexpectedEOF", err)
			}
		}
		if err != nil {
			return
		}
		// A frame that decoded must re-encode: WriteJSON accepts every
		// value ReadJSON can produce.
		if werr := WriteJSON(io.Discard, v); werr != nil {
			t.Fatalf("decoded value does not re-encode: %v", werr)
		}
	})
}

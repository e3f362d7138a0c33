// Package wire is what the cluster's TCP services share: the
// length-prefixed frame, the JSON codec the stores speak inside it, and the
// one service lifecycle and client built on it.
//
// Every frame is a 4-byte big-endian body length (at most MaxFrame)
// followed by the body, so message boundaries are explicit and
// binary-safe. ReadFrame reads one into a caller-held scratch buffer. The
// message-queue protocol (internal/mq) and the SQL protocol
// (internal/sqlstore) carry JSON bodies (WriteJSON, ReadJSON), in which
// []byte fields ride as base64. The OP↔worker invocation protocol
// (internal/proto) keeps the same length prefix, MaxFrame and ReadFrame,
// and puts its own binary body inside.
//
// Server is the listen / accept / track-connections / close machine all of
// them run on — kvstore, sqlstore, mq and the live worker embed it and
// supply only their protocol — with ServeJSON as the read-frame/answer-frame
// loop and Client as its calling half (per-operation I/O deadlines
// included). Two protocols bring their own framing: kvstore speaks RESP
// (over Server, with its own client) and objstore speaks HTTP (over
// net/http).
//
// The encode and decode paths are pooled: steady-state traffic reuses
// buffers instead of allocating per frame.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// MaxFrame caps a frame's payload to guard against hostile or corrupt
// length prefixes. 64 MiB comfortably covers the largest workload payloads
// (the object-store functions move multi-MiB objects).
const MaxFrame = 64 << 20

// encoder is a pooled marshal buffer. The json.Encoder is bound to buf
// once; Reset between frames keeps the pair reusable.
type encoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := &encoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// scratchPool holds read buffers for ReadJSON callers that do not manage
// their own scratch (the stores' request/response loops).
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// WriteJSON marshals v and writes one frame. Marshal runs through a pooled
// buffer, so steady-state frames allocate nothing beyond what the writer
// itself does; the output bytes are identical to json.Marshal's.
func WriteJSON(w io.Writer, v any) error {
	e := encPool.Get().(*encoder)
	defer encPool.Put(e)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		return fmt.Errorf("wire: marshal: %w", err)
	}
	body := e.buf.Bytes()
	// Encoder.Encode appends a newline that Marshal does not; the frame
	// carries the bare JSON.
	body = body[:len(body)-1]
	if len(body) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds %d limit", len(body), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one frame's payload into *scratch (growing it as needed)
// and returns the payload slice, which aliases *scratch and is only valid
// until the next use of the same scratch buffer. A caller that keeps one
// scratch per connection reads every steady-state frame with zero
// allocations.
func ReadFrame(r io.Reader, scratch *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds %d limit", n, MaxFrame)
	}
	buf := (*scratch)[:cap(*scratch)]
	// Grow toward n geometrically as bytes actually arrive: the length
	// prefix is attacker-controlled on a live socket, and a corrupt header
	// must not pin MaxFrame of memory before the stream proves it has that
	// many bytes.
	read := 0
	for read < n {
		if read == len(buf) {
			grown := len(buf)*2 + 512
			if grown > n {
				grown = n
			}
			nb := make([]byte, grown)
			copy(nb, buf[:read])
			buf = nb
		}
		limit := len(buf)
		if limit > n {
			limit = n
		}
		m, err := r.Read(buf[read:limit])
		read += m
		if read >= n {
			break
		}
		if err != nil {
			if err == io.EOF {
				// A present header promises a body: running dry mid-frame
				// is a truncation, never a clean end-of-stream.
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	*scratch = buf
	return buf[:n], nil
}

// ReadJSONInto reads one frame and unmarshals it into v, reusing *scratch
// for the payload. Unlike ReadJSON it decodes with plain json.Unmarshal
// (no json.Number), so it is meant for fixed struct targets without `any`
// fields. Decoded strings and []byte fields are copies; nothing in v
// aliases the scratch buffer after return.
func ReadJSONInto(r io.Reader, v any, scratch *[]byte) error {
	body, err := ReadFrame(r, scratch)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}

// ReadJSON reads one frame and unmarshals it into v. Numbers decode via
// json.Number when v contains `any` fields, preserving int64 precision.
func ReadJSON(r io.Reader, v any) error {
	scratch := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(scratch)
	body, err := ReadFrame(r, scratch)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}

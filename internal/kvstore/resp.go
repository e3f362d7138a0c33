package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// This file implements the wire format: the slice of RESP2 (the protocol
// Redis clients speak) the served commands use. Requests are arrays of
// bulk strings; responses are simple strings, errors, or integers. No
// served command answers with an array, so the reader has no recursive
// case: a request is one count header followed by that many bulk strings,
// read in a flat bounded loop.

// respValue is one parsed RESP value.
type respValue struct {
	kind byte // '+', '-', ':', '$'
	str  string
	num  int64
	bulk []byte
	null bool // null bulk string, when kind == '$'
}

var errProtocol = errors.New("kvstore: RESP protocol error")

const (
	maxBulkLen = 64 << 20 // 64 MiB guard against hostile lengths
	// maxLineLen bounds a header or status line ("*3", "$5", "+OK",
	// "-ERR ..."): a peer that never sends '\n' costs this much, not memory
	// until the process dies.
	maxLineLen = 512
	// maxCommandArgs bounds a request's element count, checked before
	// anything is allocated from it. The longest served command has three
	// (SET key value); the headroom lets an over-long or cut command be
	// answered with an error instead of a dropped connection.
	maxCommandArgs = 8
)

// readLine reads a CRLF-terminated line of at most maxLineLen bytes,
// without the terminator. The result aliases r's buffer: use it before the
// next read.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) || len(line) > maxLineLen+2 {
		return nil, errProtocol
	}
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, errProtocol
	}
	return line[:len(line)-2], nil
}

// readValue parses one RESP value from the stream.
func readValue(r *bufio.Reader) (respValue, error) {
	line, err := readLine(r)
	if err != nil {
		return respValue{}, err
	}
	if len(line) == 0 {
		return respValue{}, errProtocol
	}
	kind, rest := line[0], string(line[1:])
	switch kind {
	case '+':
		return respValue{kind: '+', str: rest}, nil
	case '-':
		return respValue{kind: '-', str: rest}, nil
	case ':':
		n, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return respValue{}, errProtocol
		}
		return respValue{kind: ':', num: n}, nil
	case '$':
		n, err := strconv.ParseInt(rest, 10, 64)
		if err != nil || n > maxBulkLen {
			return respValue{}, errProtocol
		}
		if n < 0 {
			return respValue{kind: '$', null: true}, nil
		}
		// n is the peer's claim: grow toward it as bytes arrive (as
		// wire.ReadFrame does) rather than pin up to maxBulkLen for a
		// twelve-byte header.
		var body bytes.Buffer
		if _, err := io.CopyN(&body, r, n+2); err != nil {
			return respValue{}, err
		}
		buf := body.Bytes()
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return respValue{}, errProtocol
		}
		return respValue{kind: '$', bulk: buf[:n:n]}, nil
	default:
		return respValue{}, errProtocol
	}
}

// readCommand parses a client request: "*N" and then N non-null bulk
// strings, 1 <= N <= maxCommandArgs. The first element is the command
// name; the rest are arguments.
func readCommand(r *bufio.Reader) ([][]byte, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	if len(line) == 0 || line[0] != '*' {
		return nil, errProtocol
	}
	n, err := strconv.Atoi(string(line[1:]))
	if err != nil || n < 1 || n > maxCommandArgs {
		return nil, errProtocol
	}
	args := make([][]byte, n)
	for i := range args {
		v, err := readValue(r)
		if err != nil {
			return nil, err
		}
		if v.kind != '$' || v.null {
			return nil, errProtocol
		}
		args[i] = v.bulk
	}
	return args, nil
}

// Writers. Each returns the first write error; callers flush once per reply.

func writeSimple(w *bufio.Writer, s string) error {
	_, err := fmt.Fprintf(w, "+%s\r\n", s)
	return err
}

func writeError(w *bufio.Writer, msg string) error {
	_, err := fmt.Fprintf(w, "-ERR %s\r\n", msg)
	return err
}

func writeInt(w *bufio.Writer, n int64) error {
	_, err := fmt.Fprintf(w, ":%d\r\n", n)
	return err
}

func writeBulk(w *bufio.Writer, b []byte) error {
	if b == nil {
		_, err := w.WriteString("$-1\r\n")
		return err
	}
	if _, err := fmt.Fprintf(w, "$%d\r\n", len(b)); err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err := w.WriteString("\r\n")
	return err
}

func writeCommand(w *bufio.Writer, args ...[]byte) error {
	if _, err := fmt.Fprintf(w, "*%d\r\n", len(args)); err != nil {
		return err
	}
	for _, a := range args {
		if err := writeBulk(w, a); err != nil {
			return err
		}
	}
	return w.Flush()
}

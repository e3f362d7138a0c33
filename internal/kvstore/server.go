package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"microfaas/internal/wire"
)

// Server serves a Store over RESP. The embedded wire.Server owns the TCP
// lifecycle (Listen, Close); RESP brings its own framing, so the protocol
// here is serveConn and dispatch.
type Server struct {
	wire.Server
	store *Store
}

// NewServer returns a server backed by store (a fresh store if nil).
func NewServer(store *Store) *Server {
	if store == nil {
		store = NewStore()
	}
	s := &Server{store: store}
	s.Name = "kvstore"
	s.Serve = s.serveConn
	return s
}

// Store returns the underlying store (useful for test assertions).
func (s *Server) Store() *Store { return s.store }

func (s *Server) serveConn(r *bufio.Reader, w *bufio.Writer) {
	for {
		args, err := readCommand(r)
		if err != nil {
			return // client hung up or spoke garbage; drop the connection
		}
		quit := s.dispatch(w, args)
		if err := w.Flush(); err != nil || quit {
			return
		}
	}
}

// dispatch executes one command and writes the reply. It returns true when
// the connection should close (QUIT).
func (s *Server) dispatch(w *bufio.Writer, args [][]byte) bool {
	cmd := strings.ToUpper(string(args[0]))
	argv := args[1:]
	wrongArgs := func() { writeError(w, fmt.Sprintf("wrong number of arguments for '%s'", strings.ToLower(cmd))) } //nolint:errcheck

	switch cmd {
	case "PING":
		if len(argv) == 1 {
			writeBulk(w, argv[0]) //nolint:errcheck
		} else {
			writeSimple(w, "PONG") //nolint:errcheck
		}
	case "SET":
		// SET key value [EX seconds]
		switch len(argv) {
		case 2:
			s.store.Set(string(argv[0]), argv[1])
		case 4:
			if !strings.EqualFold(string(argv[2]), "EX") {
				writeError(w, "syntax error") //nolint:errcheck
				return false
			}
			secs, err := strconv.ParseInt(string(argv[3]), 10, 64)
			if err != nil || secs <= 0 {
				writeError(w, "invalid expire time in 'set' command") //nolint:errcheck
				return false
			}
			s.store.SetWithTTL(string(argv[0]), argv[1], time.Duration(secs)*time.Second)
		default:
			wrongArgs()
			return false
		}
		writeSimple(w, "OK") //nolint:errcheck
	case "APPEND":
		if len(argv) != 2 {
			wrongArgs()
			return false
		}
		writeInt(w, int64(s.store.Append(string(argv[0]), argv[1]))) //nolint:errcheck
	case "EXPIRE":
		if len(argv) != 2 {
			wrongArgs()
			return false
		}
		secs, err := strconv.ParseInt(string(argv[1]), 10, 64)
		if err != nil {
			writeError(w, "value is not an integer or out of range") //nolint:errcheck
			return false
		}
		writeInt(w, boolToInt(s.store.Expire(string(argv[0]), time.Duration(secs)*time.Second))) //nolint:errcheck
	case "TTL":
		if len(argv) != 1 {
			wrongArgs()
			return false
		}
		ttl, ok := s.store.TTL(string(argv[0]))
		switch {
		case !ok:
			writeInt(w, -2) //nolint:errcheck
		case ttl < 0:
			writeInt(w, -1) //nolint:errcheck
		default:
			// Round up like Redis: a key with 0.5s left reports 1.
			writeInt(w, int64((ttl+time.Second-1)/time.Second)) //nolint:errcheck
		}
	case "MGET":
		if len(argv) == 0 {
			wrongArgs()
			return false
		}
		writeArrayHeader(w, len(argv)) //nolint:errcheck
		for _, k := range argv {
			v, ok := s.store.Get(string(k))
			if !ok {
				v = nil
			}
			writeBulk(w, v) //nolint:errcheck
		}
	case "MSET":
		if len(argv) == 0 || len(argv)%2 != 0 {
			wrongArgs()
			return false
		}
		for i := 0; i < len(argv); i += 2 {
			s.store.Set(string(argv[i]), argv[i+1])
		}
		writeSimple(w, "OK") //nolint:errcheck
	case "SETNX":
		if len(argv) != 2 {
			wrongArgs()
			return false
		}
		stored := s.store.SetNX(string(argv[0]), argv[1])
		writeInt(w, boolToInt(stored)) //nolint:errcheck
	case "GET":
		if len(argv) != 1 {
			wrongArgs()
			return false
		}
		v, ok := s.store.Get(string(argv[0]))
		if !ok {
			v = nil
		}
		writeBulk(w, v) //nolint:errcheck
	case "DEL":
		if len(argv) == 0 {
			wrongArgs()
			return false
		}
		writeInt(w, int64(s.store.Del(byteSlicesToStrings(argv)...))) //nolint:errcheck
	case "EXISTS":
		if len(argv) == 0 {
			wrongArgs()
			return false
		}
		writeInt(w, int64(s.store.Exists(byteSlicesToStrings(argv)...))) //nolint:errcheck
	case "INCR", "DECR", "INCRBY", "DECRBY":
		delta, err := parseDelta(cmd, argv)
		if err != nil {
			writeError(w, err.Error()) //nolint:errcheck
			return false
		}
		n, err := s.store.IncrBy(string(argv[0]), delta)
		if err != nil {
			writeError(w, "value is not an integer or out of range") //nolint:errcheck
			return false
		}
		writeInt(w, n) //nolint:errcheck
	case "KEYS":
		if len(argv) != 1 {
			wrongArgs()
			return false
		}
		keys := s.store.Keys(string(argv[0]))
		writeArrayHeader(w, len(keys)) //nolint:errcheck
		for _, k := range keys {
			writeBulk(w, []byte(k)) //nolint:errcheck
		}
	case "DBSIZE":
		writeInt(w, int64(s.store.Len())) //nolint:errcheck
	case "FLUSHALL":
		s.store.Flush()
		writeSimple(w, "OK") //nolint:errcheck
	case "QUIT":
		writeSimple(w, "OK") //nolint:errcheck
		return true
	default:
		writeError(w, fmt.Sprintf("unknown command '%s'", strings.ToLower(cmd))) //nolint:errcheck
	}
	return false
}

func parseDelta(cmd string, argv [][]byte) (int64, error) {
	switch cmd {
	case "INCR", "DECR":
		if len(argv) != 1 {
			return 0, fmt.Errorf("wrong number of arguments for '%s'", strings.ToLower(cmd))
		}
		if cmd == "INCR" {
			return 1, nil
		}
		return -1, nil
	default: // INCRBY, DECRBY
		if len(argv) != 2 {
			return 0, fmt.Errorf("wrong number of arguments for '%s'", strings.ToLower(cmd))
		}
		n, err := strconv.ParseInt(string(argv[1]), 10, 64)
		if err != nil {
			return 0, errors.New("value is not an integer or out of range")
		}
		if cmd == "DECRBY" {
			n = -n
		}
		return n, nil
	}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func byteSlicesToStrings(bs [][]byte) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = string(b)
	}
	return out
}

package kvstore

import (
	"bufio"
	"fmt"
	"strings"

	"microfaas/internal/wire"
)

// Server serves a Store over RESP. The embedded wire.Server owns the TCP
// lifecycle (Listen, Close); RESP brings its own framing, so the protocol
// here is serveConn and dispatch.
type Server struct {
	wire.Server
	store *Store
}

// NewServer returns a server backed by a fresh store.
func NewServer() *Server {
	s := &Server{store: NewStore()}
	s.Name = "kvstore"
	s.Serve = s.serveConn
	return s
}

func (s *Server) serveConn(r *bufio.Reader, w *bufio.Writer) {
	for {
		args, err := readCommand(r)
		if err != nil {
			return // client hung up or spoke garbage; drop the connection
		}
		s.dispatch(w, args)
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// dispatch executes one command and writes the reply.
func (s *Server) dispatch(w *bufio.Writer, args [][]byte) {
	cmd := strings.ToUpper(string(args[0]))
	argv := args[1:]
	wrongArgs := func() { writeError(w, fmt.Sprintf("wrong number of arguments for '%s'", strings.ToLower(cmd))) } //nolint:errcheck

	switch cmd {
	case "SET":
		if len(argv) != 2 {
			wrongArgs()
			return
		}
		s.store.Set(string(argv[0]), argv[1])
		writeSimple(w, "OK") //nolint:errcheck
	case "SETNX":
		if len(argv) != 2 {
			wrongArgs()
			return
		}
		var stored int64
		if s.store.SetNX(string(argv[0]), argv[1]) {
			stored = 1
		}
		writeInt(w, stored) //nolint:errcheck
	default:
		writeError(w, fmt.Sprintf("unknown command '%s'", strings.ToLower(cmd))) //nolint:errcheck
	}
}

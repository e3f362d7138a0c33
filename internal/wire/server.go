package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"
)

// Server is the TCP service lifecycle every framed (and RESP) service in
// the cluster shares: listen, accept, track each connection, and on Close
// shut the listener and every tracked connection and wait for the
// handlers. A service embeds it and supplies only its protocol as Serve.
// The zero value with Name and Serve set is ready to Listen (or ServeOn).
type Server struct {
	// Name prefixes the server's errors ("kvstore: listen: ...").
	Name string
	// Serve speaks the protocol on one accepted connection until the peer
	// hangs up or the connection fails. Close closes the connection under
	// it, so a Serve blocked in a read returns; a Serve that blocks on
	// anything else must be released by its owner before Close is called.
	Serve func(r *bufio.Reader, w *bufio.Writer)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Listen binds to addr (e.g. "127.0.0.1:0") and serves it in the
// background (ServeOn), returning the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: listen: %w", s.Name, err)
	}
	if err := s.ServeOn(ln); err != nil {
		return "", err
	}
	return ln.Addr().String(), nil
}

// ServeOn accepts on ln in the background until Close, which closes it.
// A closed server refuses: it closes ln and returns an error.
func (s *Server) ServeOn(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close() //nolint:errcheck // never served
		return fmt.Errorf("%s: server already closed", s.Name)
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			// Accepted while Close ran: Close has already swept conns, so
			// nobody else would ever close this one.
			s.mu.Unlock()
			conn.Close() //nolint:errcheck // never served
			return
		}
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close() //nolint:errcheck // teardown
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	s.Serve(bufio.NewReader(conn), bufio.NewWriter(conn))
}

// Close stops accepting, closes every live connection, and waits for the
// handler goroutines to finish. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close() //nolint:errcheck // teardown
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// ServeJSON returns a Serve function for a request/response protocol of
// framed JSON: it answers each request frame with handle's response frame
// until the peer hangs up or a frame fails to decode or send.
func ServeJSON[Req, Resp any](handle func(Req) Resp) func(*bufio.Reader, *bufio.Writer) {
	return func(r *bufio.Reader, w *bufio.Writer) {
		for {
			var req Req
			if err := ReadJSON(r, &req); err != nil {
				return
			}
			if err := WriteJSON(w, handle(req)); err != nil {
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

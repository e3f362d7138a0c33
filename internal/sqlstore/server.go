package sqlstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"microfaas/internal/wire"
)

// Wire protocol: wire-framed JSON (see internal/wire). Requests carry
// {"query": "..."}; responses carry the Result fields plus an optional
// "error".

type request struct {
	Query string `json:"query"`
}

type response struct {
	Columns  []string  `json:"columns,omitempty"`
	Rows     [][]Value `json:"rows,omitempty"`
	Affected int       `json:"affected"`
	Error    string    `json:"error,omitempty"`
}

// normalizeValues rewrites json.Number values into int64/float64 so results
// decoded from the wire behave like results from a local Database.
func normalizeValues(rows [][]Value) error {
	for _, row := range rows {
		for i, v := range row {
			num, ok := v.(json.Number)
			if !ok {
				continue
			}
			if n, err := num.Int64(); err == nil {
				row[i] = n
				continue
			}
			f, err := num.Float64()
			if err != nil {
				return fmt.Errorf("sqlstore: bad number %q on wire", num)
			}
			row[i] = f
		}
	}
	return nil
}

// Server serves a Database over the framed JSON protocol. The embedded
// wire.Server owns the TCP lifecycle (Listen, Close).
type Server struct {
	wire.Server
	db *Database
}

// NewServer returns a server backed by a fresh database.
func NewServer() *Server {
	s := &Server{db: NewDatabase()}
	s.Name = "sqlstore"
	s.Serve = wire.ServeJSON(s.handle)
	return s
}

// Database returns the database the server serves, for writing a fixture
// in process.
func (s *Server) Database() *Database { return s.db }

func (s *Server) handle(req request) response {
	res, err := s.db.Exec(req.Query)
	if err != nil {
		return response{Error: err.Error()}
	}
	return response{Columns: res.Columns, Rows: res.Rows, Affected: res.Affected}
}

// Client speaks the framed JSON protocol to a sqlstore server.
type Client struct {
	c *wire.Client
}

// Dial connects to a sqlstore server with the given timeout, matching
// kvstore.Dial and mq.Dial. The timeout also bounds each subsequent
// Query's I/O (as a per-operation deadline), so a backend that dies
// mid-conversation fails the call instead of hanging the worker forever.
// A zero timeout disables both bounds.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	c, err := wire.Dial("sqlstore", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// Close terminates the connection.
func (c *Client) Close() error { return c.c.Close() }

// Query executes one SQL statement on the server. Each call runs under
// the client's dial timeout as an I/O deadline: a backend that goes
// silent mid-conversation fails the query instead of hanging it.
func (c *Client) Query(sql string) (*Result, error) {
	var resp response
	if err := c.c.Call(request{Query: sql}, &resp); err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return nil, errors.New(resp.Error)
	}
	if err := normalizeValues(resp.Rows); err != nil {
		return nil, err
	}
	return &Result{Columns: resp.Columns, Rows: resp.Rows, Affected: resp.Affected}, nil
}

package mq

import (
	"errors"
	"fmt"
	"time"

	"microfaas/internal/wire"
)

// Wire protocol: wire-framed JSON. Request op is one of "produce", "fetch",
// "end".

type request struct {
	Op     string `json:"op"`
	Topic  string `json:"topic,omitempty"`
	Key    []byte `json:"key,omitempty"`
	Value  []byte `json:"value,omitempty"`
	Offset int64  `json:"offset,omitempty"`
	Max    int    `json:"max,omitempty"`
}

type response struct {
	Offset   int64     `json:"offset,omitempty"`
	Messages []Message `json:"messages,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// Server serves a Broker over TCP. The embedded wire.Server owns the
// connection lifecycle (Listen, Close).
type Server struct {
	wire.Server
	broker *Broker
}

// NewServer returns a server backed by a fresh broker.
func NewServer() *Server {
	s := &Server{broker: NewBroker()}
	s.Name = "mq"
	s.Serve = wire.ServeJSON(s.handle)
	return s
}

// Broker returns the broker the server serves, for writing a fixture in
// process.
func (s *Server) Broker() *Broker { return s.broker }

func (s *Server) handle(req request) response {
	switch req.Op {
	case "produce":
		off, err := s.broker.Produce(req.Topic, req.Key, req.Value)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{Offset: off}
	case "fetch":
		// Validate before touching the broker: a malformed frame (negative
		// offset or count) must come back as a protocol error, never reach
		// broker internals.
		if req.Offset < 0 {
			return response{Error: fmt.Sprintf("mq: negative offset %d", req.Offset)}
		}
		if req.Max < 0 {
			return response{Error: fmt.Sprintf("mq: negative max %d", req.Max)}
		}
		msgs, err := s.broker.Fetch(req.Topic, req.Offset, req.Max)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{Messages: msgs}
	case "end":
		if req.Topic == "" {
			return response{Error: "mq: empty topic"}
		}
		return response{Offset: s.broker.End(req.Topic)}
	default:
		return response{Error: fmt.Sprintf("mq: unknown op %q", req.Op)}
	}
}

// Client speaks the broker protocol over TCP. Like the other service
// clients it is single-connection and sequential.
type Client struct {
	c *wire.Client
}

// Dial connects to an mq server. The timeout bounds the dial and, as a
// per-operation I/O deadline, each subsequent call, so a broker dying
// mid-frame fails the call instead of wedging the client forever with the
// connection held open.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	c, err := wire.Dial("mq", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// Close terminates the connection.
func (c *Client) Close() error { return c.c.Close() }

func (c *Client) do(req request) (response, error) {
	var resp response
	if err := c.c.Call(req, &resp); err != nil {
		return response{}, err
	}
	if resp.Error != "" {
		return response{}, errors.New(resp.Error)
	}
	return resp, nil
}

// Produce appends a message and returns its offset.
func (c *Client) Produce(topic string, key, value []byte) (int64, error) {
	resp, err := c.do(request{Op: "produce", Topic: topic, Key: key, Value: value})
	if err != nil {
		return 0, err
	}
	return resp.Offset, nil
}

// Fetch reads up to max messages from offset; empty means the log has
// nothing there yet.
func (c *Client) Fetch(topic string, offset int64, max int) ([]Message, error) {
	resp, err := c.do(request{Op: "fetch", Topic: topic, Offset: offset, Max: max})
	if err != nil {
		return nil, err
	}
	return resp.Messages, nil
}

// End returns the topic's next-produce offset.
func (c *Client) End(topic string) (int64, error) {
	resp, err := c.do(request{Op: "end", Topic: topic})
	if err != nil {
		return 0, err
	}
	return resp.Offset, nil
}

package mq

import (
	"errors"
	"fmt"
	"time"

	"microfaas/internal/wire"
)

// Wire protocol: wire-framed JSON. Request op is one of "produce", "fetch",
// "commit", "committed", "end", "topics".

type request struct {
	Op     string `json:"op"`
	Topic  string `json:"topic,omitempty"`
	Group  string `json:"group,omitempty"`
	Key    []byte `json:"key,omitempty"`
	Value  []byte `json:"value,omitempty"`
	Offset int64  `json:"offset,omitempty"`
	Max    int    `json:"max,omitempty"`
	WaitMs int64  `json:"wait_ms,omitempty"`
}

type response struct {
	Offset   int64     `json:"offset,omitempty"`
	Messages []Message `json:"messages,omitempty"`
	Topics   []string  `json:"topics,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// maxFetchWait caps server-side long-poll blocking so a slow client cannot
// pin a handler goroutine indefinitely.
const maxFetchWait = 30 * time.Second

// clampWait bounds a client-supplied long-poll budget to [0, maxFetchWait].
// A negative WaitMs would otherwise overflow the Duration multiply for
// extreme values; it simply means "don't block".
func clampWait(waitMs int64) time.Duration {
	if waitMs <= 0 {
		return 0
	}
	wait := time.Duration(waitMs) * time.Millisecond
	if wait > maxFetchWait || wait < 0 { // < 0: multiply overflowed
		wait = maxFetchWait
	}
	return wait
}

// Server serves a Broker over TCP. The embedded wire.Server owns the
// connection lifecycle (Listen, and the tail of Close).
type Server struct {
	wire.Server
	broker *Broker
}

// NewServer returns a server backed by broker (a fresh broker if nil).
func NewServer(broker *Broker) *Server {
	if broker == nil {
		broker = NewBroker()
	}
	s := &Server{broker: broker}
	s.Name = "mq"
	s.Serve = wire.ServeJSON(s.handle)
	return s
}

// Broker returns the underlying broker.
func (s *Server) Broker() *Broker { return s.broker }

// Close stops the server, the broker, and every open connection. The
// broker closes first: a handler blocked in a long poll is parked on the
// broker, not on its socket, and must wake before it can be awaited.
func (s *Server) Close() error {
	s.broker.Close()
	return s.Server.Close()
}

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
		msgs, err := s.broker.Fetch(req.Topic, req.Offset, req.Max, clampWait(req.WaitMs))
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{Messages: msgs}
	case "consume":
		if req.Max < 0 {
			return response{Error: fmt.Sprintf("mq: negative max %d", req.Max)}
		}
		msgs, err := s.broker.ConsumeGroup(req.Group, req.Topic, req.Max, clampWait(req.WaitMs))
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{Messages: msgs}
	case "commit":
		if err := s.broker.Commit(req.Group, req.Topic, req.Offset); err != nil {
			return response{Error: err.Error()}
		}
		return response{}
	case "committed":
		if req.Group == "" || req.Topic == "" {
			return response{Error: "mq: group and topic required"}
		}
		return response{Offset: s.broker.Committed(req.Group, req.Topic)}
	case "end":
		if req.Topic == "" {
			return response{Error: "mq: empty topic"}
		}
		return response{Offset: s.broker.End(req.Topic)}
	case "topics":
		return response{Topics: s.broker.Topics()}
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
// per-operation I/O deadline, each subsequent call (long polls extend it
// by their wait), so a broker dying mid-frame fails the call instead of
// wedging the client forever with the connection held open.
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
	// Long-polling ops legitimately sit quiet for WaitMs; the deadline
	// budgets that on top of the base timeout.
	var resp response
	if err := c.c.Call(req, &resp, time.Duration(req.WaitMs)*time.Millisecond); err != nil {
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

// Fetch reads up to max messages from offset, long-polling up to wait.
func (c *Client) Fetch(topic string, offset int64, max int, wait time.Duration) ([]Message, error) {
	resp, err := c.do(request{
		Op: "fetch", Topic: topic, Offset: offset, Max: max,
		WaitMs: int64(wait / time.Millisecond),
	})
	if err != nil {
		return nil, err
	}
	return resp.Messages, nil
}

// ConsumeGroup atomically fetches from the group's committed position and
// advances the commit (at-most-once delivery), long-polling up to wait.
func (c *Client) ConsumeGroup(group, topic string, max int, wait time.Duration) ([]Message, error) {
	resp, err := c.do(request{
		Op: "consume", Group: group, Topic: topic, Max: max,
		WaitMs: int64(wait / time.Millisecond),
	})
	if err != nil {
		return nil, err
	}
	return resp.Messages, nil
}

// Commit stores a consumer group's position.
func (c *Client) Commit(group, topic string, offset int64) error {
	_, err := c.do(request{Op: "commit", Group: group, Topic: topic, Offset: offset})
	return err
}

// Committed reads a consumer group's position.
func (c *Client) Committed(group, topic string) (int64, error) {
	resp, err := c.do(request{Op: "committed", Group: group, Topic: topic})
	if err != nil {
		return 0, err
	}
	return resp.Offset, nil
}

// End returns the topic's next-produce offset.
func (c *Client) End(topic string) (int64, error) {
	resp, err := c.do(request{Op: "end", Topic: topic})
	if err != nil {
		return 0, err
	}
	return resp.Offset, nil
}

// Topics lists the broker's topics.
func (c *Client) Topics() ([]string, error) {
	resp, err := c.do(request{Op: "topics"})
	if err != nil {
		return nil, err
	}
	return resp.Topics, nil
}

package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"
)

// Client is a RESP client for a kvstore (or Redis-compatible) server.
// It is safe for sequential use only; the workload functions each open
// their own client, matching the paper's one-function-per-node model.
type Client struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	timeout time.Duration // per-operation I/O deadline (0 = none)
}

// Dial connects to a kvstore server with the given timeout. The timeout
// also bounds each subsequent operation's I/O as a deadline, so a server
// dying mid-frame fails the call instead of wedging the client forever
// with the connection held open.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("kvstore: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), timeout: timeout}, nil
}

// Close terminates the connection.
func (c *Client) Close() error { return c.conn.Close() }

// do sends one command and reads one reply.
func (c *Client) do(args ...[]byte) (respValue, error) {
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return respValue{}, fmt.Errorf("kvstore: deadline: %w", err)
		}
	}
	if err := writeCommand(c.w, args...); err != nil {
		return respValue{}, fmt.Errorf("kvstore: send: %w", err)
	}
	v, err := readValue(c.r)
	if err != nil {
		return respValue{}, fmt.Errorf("kvstore: recv: %w", err)
	}
	if v.kind == '-' {
		return respValue{}, fmt.Errorf("kvstore: server: %s", v.str)
	}
	return v, nil
}

// Set stores value under key.
func (c *Client) Set(key string, value []byte) error {
	v, err := c.do([]byte("SET"), []byte(key), value)
	if err != nil {
		return err
	}
	if v.kind != '+' || v.str != "OK" {
		return errors.New("kvstore: unexpected SET reply")
	}
	return nil
}

// SetNX stores value only if key is absent; reports whether it stored.
func (c *Client) SetNX(key string, value []byte) (bool, error) {
	v, err := c.do([]byte("SETNX"), []byte(key), value)
	if err != nil {
		return false, err
	}
	return v.num == 1, nil
}

package wire

import (
	"bufio"
	"fmt"
	"net"
	"time"
)

// Client is the client half of a framed-JSON request/response protocol:
// one connection, used sequentially.
type Client struct {
	name    string
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	timeout time.Duration // per-operation I/O deadline (0 = none)
}

// Dial connects to the service at addr; name prefixes the client's errors.
// The timeout bounds the dial and, as a per-operation I/O deadline, each
// subsequent Call, so a backend that dies mid-conversation fails the call
// instead of wedging the caller forever with the connection held open. A
// zero timeout disables both bounds.
func Dial(name, addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("%s: dial %s: %w", name, addr, err)
	}
	return &Client{name: name, conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), timeout: timeout}, nil
}

// Close terminates the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Call sends req as one frame and decodes the reply frame into resp (as
// ReadJSON does: numbers in `any` fields arrive as json.Number). The
// exchange runs under the dial timeout.
func (c *Client) Call(req, resp any) error {
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return fmt.Errorf("%s: deadline: %w", c.name, err)
		}
	}
	if err := WriteJSON(c.w, req); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	return ReadJSON(c.r, resp)
}

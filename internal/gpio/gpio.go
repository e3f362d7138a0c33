// Package gpio models the prototype's power-control plane: the OP SBC's
// GPIO header wired to every worker SBC's PWR_BUT pin (Sec IV-D), through
// which the orchestrator powers workers on and off.
//
// The controller does two jobs. First, it enforces the physical wiring
// discipline — every worker must be wired to a distinct GPIO pin before it
// can be actuated, just as the prototype runs one jumper per node. Second,
// it keeps the cluster's power-state audit log: every transition (who,
// when, from→to, why), which is both the evaluation's power timeline and
// the data behind Fig 5-style plots. SimWorkers report their transitions
// here when a controller is attached.
package gpio

import (
	"fmt"
	"sync"
	"time"

	"microfaas/internal/chunklog"
	"microfaas/internal/power"
)

// Event is one power-state transition of one worker node.
type Event struct {
	// At is the cluster-clock timestamp.
	At time.Duration
	// Node is the worker id; Pin the GPIO line that actuated it.
	Node string
	// Pin is the GPIO line number wired to the node's PWR_BUT header.
	Pin int
	// From/To are the power states around the transition.
	From, To power.State
	// Cause describes the actuation, e.g. "PWR_BUT press (job 42)".
	Cause string
}

// Controller is the OP's GPIO header: wiring registry plus transition log.
// Safe for concurrent use.
type Controller struct {
	mu      sync.Mutex
	pins    map[string]int // node -> pin
	used    map[int]string // pin -> node
	nextPin int
	// events is chunked: the log grows by one entry per power transition
	// on the simulator's hot path, and a flat slice's geometric regrowth
	// (zero + copy the whole array at every doubling) was the dominant
	// allocation cost of long runs.
	events chunklog.Log[Event]
}

// NewController returns an empty controller whose pins number from 1.
func NewController() *Controller {
	return &Controller{pins: make(map[string]int), used: make(map[int]string), nextPin: 1}
}

// Wire connects a node's PWR_BUT to a specific pin. Each node and each pin
// may be used once.
func (c *Controller) Wire(node string, pin int) error {
	if node == "" {
		return fmt.Errorf("gpio: empty node name")
	}
	if pin <= 0 {
		return fmt.Errorf("gpio: pin numbers start at 1, got %d", pin)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, dup := c.pins[node]; dup {
		return fmt.Errorf("gpio: node %s already wired to pin %d", node, p)
	}
	if n, dup := c.used[pin]; dup {
		return fmt.Errorf("gpio: pin %d already wired to node %s", pin, n)
	}
	c.pins[node] = pin
	c.used[pin] = node
	if pin >= c.nextPin {
		c.nextPin = pin + 1
	}
	return nil
}

// WireNext wires a node to the lowest free pin and returns it.
func (c *Controller) WireNext(node string) (int, error) {
	c.mu.Lock()
	pin := c.nextPin
	c.mu.Unlock()
	if err := c.Wire(node, pin); err != nil {
		return 0, err
	}
	return pin, nil
}

// Transition records a power-state change for a wired node. Unwired nodes
// are rejected: in the prototype the OP physically cannot actuate them.
func (c *Controller) Transition(node string, at time.Duration, from, to power.State, cause string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	pin, ok := c.pins[node]
	if !ok {
		return fmt.Errorf("gpio: node %s is not wired", node)
	}
	if from == to {
		return fmt.Errorf("gpio: node %s transition %v -> %v is not a transition", node, from, to)
	}
	if last, ok := c.events.Last(); ok && last.At > at {
		return fmt.Errorf("gpio: transition at %v is earlier than the last logged event (%v)", at, last.At)
	}
	c.events.Append(Event{At: at, Node: node, Pin: pin, From: from, To: to, Cause: cause})
	return nil
}

// TransitionMonotone records a transition like Transition but clamps `at`
// forward to the last logged event's timestamp instead of rejecting it.
// Live-mode workers use it: concurrent wall-clock callers can observe
// their timestamps slightly out of order by the time they reach the
// controller's lock, and the audit log must stay lossless and monotone.
// The sim's single-threaded virtual clock never needs the clamp and keeps
// the strict Transition.
func (c *Controller) TransitionMonotone(node string, at time.Duration, from, to power.State, cause string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	pin, ok := c.pins[node]
	if !ok {
		return fmt.Errorf("gpio: node %s is not wired", node)
	}
	if from == to {
		return fmt.Errorf("gpio: node %s transition %v -> %v is not a transition", node, from, to)
	}
	if last, ok := c.events.Last(); ok && last.At > at {
		at = last.At
	}
	c.events.Append(Event{At: at, Node: node, Pin: pin, From: from, To: to, Cause: cause})
	return nil
}

// Events returns a copy of the full transition log, in time order.
func (c *Controller) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events.Flatten()
}

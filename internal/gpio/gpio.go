// Package gpio models the prototype's power-control plane: the OP SBC's
// GPIO header wired to every worker SBC's PWR_BUT pin (Sec IV-D), through
// which the orchestrator powers workers on and off.
//
// The controller does two jobs. First, it enforces the physical wiring
// discipline — every worker must be wired to a distinct GPIO pin before it
// can be actuated, just as the prototype runs one jumper per node. Wiring
// returns a *Pin, the node's handle on its line (as power.Meter.Device
// returns a meter handle): a worker takes it once and actuates through it,
// so a transition never looks a node up by name, and an unwired node has
// no handle to actuate with. Second, it keeps the cluster's power-state
// audit log: every transition (who, when, from→to, why), which is both
// the evaluation's power timeline and the data behind Fig 5-style plots.
// Workers report their transitions here when a controller is attached.
//
// A transition is logged as a 24-byte row with no pointer in it: the time,
// the job that caused it, the pin's line number, the cause's ordinal in
// the controller's cause table, and the two states. A cause is its static
// text plus the job it names, not a formatted string: the simulator logs
// several transitions per job, building "PWR_BUT press (job 42)" on each
// would allocate on its hot path, and a text carrying a job id would grow
// the cause table with the log. Events renders the full cause on read.
package gpio

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"microfaas/internal/chunklog"
	"microfaas/internal/power"
)

// NoJob is the job id of a transition that no job caused (a power
// manager's wake, a keep-warm expiry): its cause renders without the
// " (job N)" suffix. Job ids are positive.
const NoJob int64 = -1

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
	mu sync.Mutex
	// pins holds every wired pin by line number (line n at n-1); byNode
	// finds a node's pin when it is wired again. Neither shrinks.
	pins   []*Pin
	byNode map[string]*Pin
	causes chunklog.Names
	// events is chunked: the log grows by one entry per power transition
	// on the simulator's hot path, and a flat slice's geometric regrowth
	// (zero + copy the whole array at every doubling) was the dominant
	// allocation cost of long runs.
	events chunklog.Log[entry]
}

// Pin is one node's wired PWR_BUT line, the handle WireNext returns. Its
// transitions append to the controller's log under the controller's lock,
// so a Pin is safe for concurrent use.
type Pin struct {
	c    *Controller
	node string
	num  int
}

// entry is one logged transition as stored: the line number stands for
// the pin and its node, and the cause is an ordinal in the controller's
// cause table plus the job id, until Events renders them.
type entry struct {
	at       time.Duration
	job      int64
	pin      int32
	cause    uint16
	from, to uint8 // power.State; every state fits
}

// NewController returns an empty controller whose pins number from 1.
func NewController() *Controller { return &Controller{} }

// WireNext wires a node's PWR_BUT to the next pin — one past the last
// pin wired, so pins number 1, 2, … in wiring order — and returns the
// node's handle on it. Each node may be wired once. Picking the pin and
// wiring it happen under one lock, so concurrent callers get distinct
// pins.
func (c *Controller) WireNext(node string) (*Pin, error) {
	pins, err := c.Wire([]string{node})
	if err != nil {
		return nil, err
	}
	return pins[0], nil
}

// Grow makes room for n more wired nodes, so a rack that wires its boards
// in batches sizes the wiring index and pin list once. Every pin wired
// before keeps its handle and number.
func (c *Controller) Grow(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	byNode := make(map[string]*Pin, len(c.byNode)+n)
	maps.Copy(byNode, c.byNode)
	c.byNode = byNode
	c.pins = slices.Grow(c.pins, n)
}

// Wire wires each of nodes to the next pin in order, as WireNext would one
// by one, and returns their handles. The pins come from one slab, so a
// rack's boards wire with no allocation of their own, and the wiring index
// is sized to the first batch it sees unless Grow sized it. A batch wires
// all its nodes or, on an empty name or one already wired, none.
func (c *Controller) Wire(nodes []string) ([]*Pin, error) {
	slab := make([]Pin, len(nodes))
	out := make([]*Pin, len(nodes))
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byNode == nil {
		c.byNode = make(map[string]*Pin, len(nodes))
	}
	c.pins = slices.Grow(c.pins, len(nodes))
	for i, node := range nodes {
		var err error
		if node == "" {
			err = fmt.Errorf("gpio: empty node name")
		} else if p, dup := c.byNode[node]; dup {
			err = fmt.Errorf("gpio: node %s already wired to pin %d", node, p.num)
		}
		if err != nil {
			for _, p := range out[:i] {
				delete(c.byNode, p.node)
			}
			kept := len(c.pins) - i
			clear(c.pins[kept:])
			c.pins = c.pins[:kept]
			return nil, err
		}
		p := &slab[i]
		*p = Pin{c: c, node: node, num: len(c.pins) + 1}
		c.pins = append(c.pins, p)
		c.byNode[node] = p
		out[i] = p
	}
	return out, nil
}

// Transition records a power-state change of the pin's node, caused by
// job (NoJob for none). A nil pin is an unwired node and is rejected: in
// the prototype the OP physically cannot actuate it. So are a same-state
// "transition" and one stamped before the last logged event.
func (p *Pin) Transition(at time.Duration, from, to power.State, cause string, job int64) error {
	return p.record(at, from, to, cause, job, false)
}

// TransitionMonotone records a transition like Transition but clamps `at`
// forward to the last logged event's timestamp instead of rejecting it.
// Live-mode workers use it: concurrent wall-clock callers can observe
// their timestamps slightly out of order by the time they reach the
// controller's lock, and the audit log must stay lossless and monotone.
// The sim's single-threaded virtual clock never needs the clamp and keeps
// the strict Transition.
func (p *Pin) TransitionMonotone(at time.Duration, from, to power.State, cause string, job int64) error {
	return p.record(at, from, to, cause, job, true)
}

// record is both transitions: clamp picks TransitionMonotone's clamp over
// Transition's refusal of an out-of-order stamp.
func (p *Pin) record(at time.Duration, from, to power.State, cause string, job int64, clamp bool) error {
	if p == nil {
		return fmt.Errorf("gpio: transition %v -> %v on an unwired node", from, to)
	}
	if from == to {
		return fmt.Errorf("gpio: node %s transition %v -> %v is not a transition", p.node, from, to)
	}
	c := p.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if last, ok := c.events.Last(); ok && last.at > at {
		if !clamp {
			return fmt.Errorf("gpio: transition at %v is earlier than the last logged event (%v)", at, last.at)
		}
		at = last.at
	}
	ord := c.causes.Ordinal(cause)
	if ord > math.MaxUint16 {
		return fmt.Errorf("gpio: cause %q is past the log's %d distinct causes", cause, math.MaxUint16+1)
	}
	c.events.Append(entry{at: at, job: job, pin: int32(p.num), cause: uint16(ord), from: uint8(from), to: uint8(to)})
	return nil
}

// Events returns a copy of the full transition log, in time order, with
// each cause rendered as "<cause> (job <id>)" when a job caused it.
func (c *Controller) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, 0, c.events.Len())
	c.events.Each(func(e entry) {
		cause := c.causes.Name(uint32(e.cause))
		if e.job != NoJob {
			cause += " (job " + strconv.FormatInt(e.job, 10) + ")"
		}
		out = append(out, Event{
			At: e.at, Node: c.pins[e.pin-1].node, Pin: int(e.pin),
			From: power.State(e.from), To: power.State(e.to), Cause: cause,
		})
	})
	return out
}

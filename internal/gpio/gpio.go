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
// A cause is logged as its static text plus the job it names, not as a
// formatted string: the simulator logs several transitions per job, and
// building "PWR_BUT press (job 42)" on each would allocate on its hot
// path. Events renders the full cause on read.
package gpio

import (
	"fmt"
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
	mu   sync.Mutex
	pins map[string]*Pin // node -> its wired line; never shrinks
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

// entry is one logged transition as stored: the pin stands for the node
// and line number, and the cause is kept as its static text plus a job id
// until Events renders it.
type entry struct {
	at       time.Duration
	pin      *Pin
	cause    string
	job      int64
	from, to uint8 // power.State; every state fits
}

// NewController returns an empty controller whose pins number from 1.
func NewController() *Controller {
	return &Controller{pins: make(map[string]*Pin)}
}

// WireNext wires a node's PWR_BUT to the next pin — one past the last
// pin wired, so pins number 1, 2, … in wiring order — and returns the
// node's handle on it. Each node may be wired once. Picking the pin and
// wiring it happen under one lock, so concurrent callers get distinct
// pins.
func (c *Controller) WireNext(node string) (*Pin, error) {
	if node == "" {
		return nil, fmt.Errorf("gpio: empty node name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, dup := c.pins[node]; dup {
		return nil, fmt.Errorf("gpio: node %s already wired to pin %d", node, p.num)
	}
	p := &Pin{c: c, node: node, num: len(c.pins) + 1}
	c.pins[node] = p
	return p, nil
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
	c.events.Append(entry{at: at, pin: p, cause: cause, job: job, from: uint8(from), to: uint8(to)})
	return nil
}

// Events returns a copy of the full transition log, in time order, with
// each cause rendered as "<cause> (job <id>)" when a job caused it.
func (c *Controller) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, 0, c.events.Len())
	c.events.Each(func(e entry) {
		cause := e.cause
		if e.job != NoJob {
			cause += " (job " + strconv.FormatInt(e.job, 10) + ")"
		}
		out = append(out, Event{
			At: e.at, Node: e.pin.node, Pin: e.pin.num,
			From: power.State(e.from), To: power.State(e.to), Cause: cause,
		})
	})
	return out
}

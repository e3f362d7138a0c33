package gpio

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"microfaas/internal/power"
)

func TestWireAndPinLookup(t *testing.T) {
	c := NewController()
	if err := c.Wire("sbc-0", 7); err != nil {
		t.Fatal(err)
	}
	if err := c.Transition("sbc-0", 0, power.Off, power.Booting, "on"); err != nil {
		t.Fatal(err)
	}
	if pin := c.Events()[0].Pin; pin != 7 {
		t.Fatalf("sbc-0 actuated through pin %d, want 7", pin)
	}
	if _, ok := c.pins["ghost"]; ok {
		t.Fatal("unwired node has a pin")
	}
}

func TestWireRejectsDuplicates(t *testing.T) {
	c := NewController()
	if err := c.Wire("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Wire("a", 2); err == nil {
		t.Fatal("node double-wired")
	}
	if err := c.Wire("b", 1); err == nil {
		t.Fatal("pin double-used")
	}
	if err := c.Wire("", 3); err == nil {
		t.Fatal("empty node wired")
	}
	if err := c.Wire("c", 0); err == nil {
		t.Fatal("pin 0 accepted")
	}
}

func TestWireNextSkipsUsedPins(t *testing.T) {
	c := NewController()
	if err := c.Wire("manual", 3); err != nil {
		t.Fatal(err)
	}
	pin, err := c.WireNext("auto")
	if err != nil || pin != 4 {
		t.Fatalf("WireNext = %d, %v (want 4, after the manually-used 3)", pin, err)
	}
	if len(c.pins) != 2 || c.pins["auto"] != 4 || c.pins["manual"] != 3 {
		t.Fatalf("pins = %v", c.pins)
	}
}

func TestTransitionRequiresWiring(t *testing.T) {
	c := NewController()
	if err := c.Transition("ghost", 0, power.Off, power.Booting, "x"); err == nil {
		t.Fatal("unwired node actuated")
	}
}

func TestTransitionRejectsNoOp(t *testing.T) {
	c := NewController()
	c.Wire("a", 1) //nolint:errcheck
	if err := c.Transition("a", 0, power.Busy, power.Busy, "x"); err == nil {
		t.Fatal("identity transition accepted")
	}
}

func TestTransitionRejectsTimeTravel(t *testing.T) {
	c := NewController()
	c.Wire("a", 1) //nolint:errcheck
	if err := c.Transition("a", time.Second, power.Off, power.Booting, "on"); err != nil {
		t.Fatal(err)
	}
	if err := c.Transition("a", 500*time.Millisecond, power.Booting, power.Busy, "back"); err == nil {
		t.Fatal("out-of-order event accepted")
	}
}

func TestEventLogAndPowerOnCount(t *testing.T) {
	c := NewController()
	c.Wire("a", 1) //nolint:errcheck
	c.Wire("b", 2) //nolint:errcheck
	steps := []struct {
		node     string
		from, to power.State
	}{
		{"a", power.Off, power.Booting},
		{"a", power.Booting, power.Busy},
		{"b", power.Off, power.Booting},
		{"a", power.Busy, power.Off},
		{"a", power.Off, power.Booting},
	}
	for i, s := range steps {
		if err := c.Transition(s.node, time.Duration(i)*time.Second, s.from, s.to, "t"); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.Events()); got != 5 {
		t.Fatalf("%d events", got)
	}
	events, powerOns := map[string]int{}, map[string]int{}
	for _, e := range c.Events() {
		events[e.Node]++
		if e.From == power.Off {
			powerOns[e.Node]++
		}
	}
	if events["a"] != 4 {
		t.Fatalf("a has %d events", events["a"])
	}
	if powerOns["a"] != 2 {
		t.Fatalf("a powered on %d times, want 2", powerOns["a"])
	}
	if powerOns["b"] != 1 {
		t.Fatalf("b powered on %d times, want 1", powerOns["b"])
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	c := NewController()
	c.Wire("a", 1)                                         //nolint:errcheck
	c.Transition("a", 0, power.Off, power.Booting, "once") //nolint:errcheck
	evs := c.Events()
	evs[0].Node = "tampered"
	if c.Events()[0].Node != "a" {
		t.Fatal("Events leaked internal storage")
	}
}

// Property: wiring N distinct nodes via WireNext yields N distinct pins.
func TestWireNextDistinctProperty(t *testing.T) {
	prop := func(n uint8) bool {
		c := NewController()
		seen := map[int]bool{}
		for i := 0; i < int(n%64)+1; i++ {
			pin, err := c.WireNext(strings.Repeat("x", i+1))
			if err != nil || seen[pin] {
				return false
			}
			seen[pin] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

package gpio

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"microfaas/internal/power"
)

// mustWire wires node to the next pin or fails the test.
func mustWire(t *testing.T, c *Controller, node string) *Pin {
	t.Helper()
	p, err := c.WireNext(node)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWireAndPinLookup(t *testing.T) {
	c := NewController()
	mustWire(t, c, "sbc-0")
	p := mustWire(t, c, "sbc-1")
	if err := p.Transition(0, power.Off, power.Booting, "on", NoJob); err != nil {
		t.Fatal(err)
	}
	if e := c.Events()[0]; e.Node != "sbc-1" || e.Pin != 2 {
		t.Fatalf("%s actuated through pin %d, want sbc-1 through 2", e.Node, e.Pin)
	}
	if _, ok := c.byNode["ghost"]; ok {
		t.Fatal("unwired node has a pin")
	}
}

func TestWireRejectsDuplicates(t *testing.T) {
	c := NewController()
	mustWire(t, c, "a")
	if _, err := c.WireNext("a"); err == nil {
		t.Fatal("node double-wired")
	}
	if _, err := c.WireNext(""); err == nil {
		t.Fatal("empty node wired")
	}
}

// TestWireNextSkipsUsedPins: a node gets the pin after every one wired
// before it, and a refused wiring uses none.
func TestWireNextSkipsUsedPins(t *testing.T) {
	c := NewController()
	mustWire(t, c, "a")
	mustWire(t, c, "b")
	if _, err := c.WireNext("a"); err == nil {
		t.Fatal("node double-wired")
	}
	pin, err := c.WireNext("auto")
	if err != nil || pin.num != 3 {
		t.Fatalf("WireNext = %v, %v (want pin 3, after the used 1 and 2)", pin, err)
	}
	if len(c.pins) != 3 || c.pins[2] != pin || c.byNode["auto"] != pin || c.byNode["b"].num != 2 {
		t.Fatalf("pins = %v, by node %v", c.pins, c.byNode)
	}
}

// TestWireBatch: a batch numbers its pins on from the last one wired, as
// WireNext would one by one, and a batch naming an empty, already-wired
// or repeated node wires none of its nodes.
func TestWireBatch(t *testing.T) {
	c := NewController()
	mustWire(t, c, "a")
	pins, err := c.Wire([]string{"b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pins {
		if p.num != i+2 || c.byNode[p.node] != p || c.pins[i+1] != p {
			t.Fatalf("pin %d: %+v, want line %d", i, p, i+2)
		}
	}
	for _, bad := range [][]string{{"e", "a"}, {"e", ""}, {"e", "f", "e"}} {
		if _, err := c.Wire(bad); err == nil {
			t.Fatalf("Wire(%q) accepted", bad)
		}
		if len(c.pins) != 4 || len(c.byNode) != 4 {
			t.Fatalf("refused Wire(%q) left %d pins, %d wired nodes; want 4 and 4", bad, len(c.pins), len(c.byNode))
		}
	}
	if p := mustWire(t, c, "e"); p.num != 5 {
		t.Fatalf("after refused batches e got line %d, want 5", p.num)
	}
}

// TestWireNextConcurrent: callers racing WireNext each get their own pin.
// Picking the pin and wiring it were two critical sections, so two
// callers could pick the same pin and the second failed.
func TestWireNextConcurrent(t *testing.T) {
	const n = 64
	c := NewController()
	pins := make([]*Pin, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pins[i], errs[i] = c.WireNext(fmt.Sprintf("sbc-%02d", i))
		}()
	}
	wg.Wait()
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("WireNext(sbc-%02d): %v", i, errs[i])
		}
		if seen[pins[i].num] {
			t.Fatalf("pin %d handed out twice", pins[i].num)
		}
		seen[pins[i].num] = true
	}
	if len(seen) != n {
		t.Fatalf("%d distinct pins, want %d", len(seen), n)
	}
}

func TestTransitionRequiresWiring(t *testing.T) {
	var unwired *Pin
	if err := unwired.Transition(0, power.Off, power.Booting, "x", NoJob); err == nil {
		t.Fatal("unwired node actuated")
	}
	if err := unwired.TransitionMonotone(0, power.Off, power.Booting, "x", NoJob); err == nil {
		t.Fatal("unwired node actuated")
	}
}

func TestTransitionRejectsNoOp(t *testing.T) {
	p := mustWire(t, NewController(), "a")
	if err := p.Transition(0, power.Busy, power.Busy, "x", NoJob); err == nil {
		t.Fatal("identity transition accepted")
	}
}

func TestTransitionRejectsTimeTravel(t *testing.T) {
	c := NewController()
	p := mustWire(t, c, "a")
	if err := p.Transition(time.Second, power.Off, power.Booting, "on", NoJob); err != nil {
		t.Fatal(err)
	}
	if err := p.Transition(500*time.Millisecond, power.Booting, power.Busy, "back", NoJob); err == nil {
		t.Fatal("out-of-order event accepted")
	}
	if err := p.TransitionMonotone(500*time.Millisecond, power.Booting, power.Busy, "clamped", NoJob); err != nil {
		t.Fatal(err)
	}
	if evs := c.Events(); len(evs) != 2 || evs[1].At != time.Second {
		t.Fatalf("monotone transition logged %+v, want clamped to 1s", evs)
	}
}

func TestEventLogAndPowerOnCount(t *testing.T) {
	c := NewController()
	pins := map[string]*Pin{"a": mustWire(t, c, "a"), "b": mustWire(t, c, "b")}
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
		if err := pins[s.node].Transition(time.Duration(i)*time.Second, s.from, s.to, "t", NoJob); err != nil {
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

// TestEventsRenderCauses: a cause is stored as its text and job id, and
// read back as "<text> (job <id>)", or the bare text for NoJob.
func TestEventsRenderCauses(t *testing.T) {
	c := NewController()
	p := mustWire(t, c, "a")
	p.Transition(0, power.Off, power.Booting, "PWR_BUT press", 42)            //nolint:errcheck
	p.Transition(1, power.Booting, power.Busy, "boot complete", 0)            //nolint:errcheck
	p.Transition(2, power.Busy, power.Off, "keep-warm window expired", NoJob) //nolint:errcheck
	var got []string
	for _, e := range c.Events() {
		got = append(got, e.Cause)
	}
	want := []string{"PWR_BUT press (job 42)", "boot complete (job 0)", "keep-warm window expired"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("causes = %q, want %q", got, want)
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	c := NewController()
	p := mustWire(t, c, "a")
	p.Transition(0, power.Off, power.Booting, "once", NoJob) //nolint:errcheck
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
			if err != nil || seen[pin.num] {
				return false
			}
			seen[pin.num] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEntryLayout pins the stored transition: no field, walked through
// structs and arrays, that the garbage collector would scan, and at most
// 24 bytes.
func TestEntryLayout(t *testing.T) {
	var walk func(t reflect.Type, path string) error
	walk = func(t reflect.Type, path string) error {
		switch t.Kind() {
		case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer,
			reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			return fmt.Errorf("%s is a %s", path, t.Kind())
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if err := walk(t.Field(i).Type, path+"."+t.Field(i).Name); err != nil {
					return err
				}
			}
		case reflect.Array:
			return walk(t.Elem(), path+"[]")
		}
		return nil
	}
	if err := walk(reflect.TypeOf(entry{}), "entry"); err != nil {
		t.Fatal(err)
	}
	if size := unsafe.Sizeof(entry{}); size > 24 {
		t.Fatalf("entry is %d bytes, want at most 24", size)
	}
}

// TestGrowSizesOnce: after Grow(n), batches adding up to n wire without
// regrowing the wiring index or the pin list — each batch allocates its
// slab and its output slice and nothing else — on the pin numbers a
// controller never grown gives, and Grow on a non-empty controller keeps
// every pin wired before it: the same handle, the same number, the same
// refusal to wire its node again.
func TestGrowSizesOnce(t *testing.T) {
	const batches, batch = 16, 64
	ids := make([][]string, batches)
	for b := range ids {
		for i := 0; i < batch; i++ {
			ids[b] = append(ids[b], fmt.Sprintf("b%02d-%03d", b, i))
		}
	}
	grown, plain := NewController(), NewController()
	early := mustWire(t, grown, "switch")
	mustWire(t, plain, "switch")
	_, before := grown.WireNext("switch")
	grown.Grow(batches * batch)
	if _, after := grown.WireNext("switch"); before == nil || after == nil || after.Error() != before.Error() {
		t.Fatalf("re-wiring after Grow: %v, before: %v", after, before)
	}
	if grown.byNode["switch"] != early || grown.pins[0] != early || early.num != 1 {
		t.Fatal("Grow replaced or renumbered a pin wired before it")
	}
	for _, c := range []*Controller{grown, plain} {
		for b := range ids {
			warm := true
			allocs := testing.AllocsPerRun(1, func() {
				if warm { // skip AllocsPerRun's warm-up call: wire each batch once
					warm = false
					return
				}
				if _, err := c.Wire(ids[b]); err != nil {
					t.Fatal(err)
				}
			})
			if c == grown && allocs > 2 {
				t.Fatalf("batch %d after Grow: %v allocations, want ≤ 2 (its slab and its pins)", b, allocs)
			}
		}
	}
	for n, p := range plain.pins {
		if q := grown.pins[n]; q.node != p.node || q.num != p.num || grown.byNode[p.node] != q {
			t.Fatalf("pin %d: %s on line %d after Grow, %s on line %d without", n+1, q.node, q.num, p.node, p.num)
		}
	}
	if len(grown.pins) != len(plain.pins) {
		t.Fatalf("%d pins after Grow, %d without", len(grown.pins), len(plain.pins))
	}
}

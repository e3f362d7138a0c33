package power

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEnergyConversion(t *testing.T) {
	if got := Energy(100, 10*time.Second); got != 1000 {
		t.Fatalf("Energy(100W, 10s) = %v J, want 1000", got)
	}
}

func TestMeterIntegratesPiecewiseConstant(t *testing.T) {
	m := NewMeter()
	m.Set("sbc", 2, 0)
	m.Set("sbc", 4, 10*time.Second) // 2W for 10s = 20 J banked
	got := m.Energy("sbc", 15*time.Second)
	// 20 J + 4W * 5s = 40 J.
	if !approx(float64(got), 40, 1e-9) {
		t.Fatalf("energy = %v, want 40 J", got)
	}
}

func TestMeterEnergyIsLazyUpToNow(t *testing.T) {
	m := NewMeter()
	m.Set("d", 10, 0)
	if got := m.Energy("d", time.Second); !approx(float64(got), 10, 1e-9) {
		t.Fatalf("energy at 1s = %v, want 10", got)
	}
	// Reading at a later time without further Set calls keeps integrating.
	if got := m.Energy("d", time.Minute); !approx(float64(got), 600, 1e-9) {
		t.Fatalf("energy at 1m = %v, want 600", got)
	}
}

func TestMeterUnknownDevice(t *testing.T) {
	m := NewMeter()
	if m.Energy("nope", time.Hour) != 0 || m.Power("nope") != 0 {
		t.Fatal("unknown device must read as zero")
	}
}

func TestMeterTotals(t *testing.T) {
	m := NewMeter()
	m.Set("a", 1, 0)
	m.Set("b", 2, 0)
	if got := m.TotalPower(); got != 3 {
		t.Fatalf("TotalPower = %v, want 3", got)
	}
	if got := m.TotalEnergy(10 * time.Second); !approx(float64(got), 30, 1e-9) {
		t.Fatalf("TotalEnergy = %v, want 30", got)
	}
	devs := registered(m)
	if len(devs) != 2 || devs[0] != "a" || devs[1] != "b" {
		t.Fatalf("devices = %v", devs)
	}
}

func TestMeterBackwardsTimePanics(t *testing.T) {
	m := NewMeter()
	m.Set("d", 1, 10*time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on backwards time")
		}
	}()
	m.Set("d", 2, 5*time.Second)
}

func TestMeterNegativePowerPanics(t *testing.T) {
	m := NewMeter()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative power")
		}
	}()
	m.Set("d", -1, 0)
}

// Property: total energy equals the sum of per-device energies for any
// sequence of non-negative power levels applied at increasing times.
func TestMeterAdditivityProperty(t *testing.T) {
	prop := func(levelsA, levelsB []uint8) bool {
		m := NewMeter()
		now := time.Duration(0)
		for _, l := range levelsA {
			m.Set("a", Watts(l), now)
			now += time.Second
		}
		now2 := time.Duration(0)
		for _, l := range levelsB {
			m.Set("b", Watts(l), now2)
			now2 += time.Second
		}
		end := now
		if now2 > end {
			end = now2
		}
		end += time.Second
		total := m.TotalEnergy(end)
		sum := m.Energy("a", end) + m.Energy("b", end)
		return approx(float64(total), float64(sum), 1e-6)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: energy is monotone non-decreasing in time.
func TestMeterMonotoneProperty(t *testing.T) {
	prop := func(levels []uint8, probeSecs uint8) bool {
		m := NewMeter()
		now := time.Duration(0)
		for _, l := range levels {
			m.Set("d", Watts(l), now)
			now += time.Second
		}
		t1 := now + time.Duration(probeSecs)*time.Second
		t2 := t1 + time.Minute
		return m.Energy("d", t2) >= m.Energy("d", t1)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSBCModelAppendixConstants(t *testing.T) {
	m := DefaultSBCModel()
	if m.Power(Busy) != 1.96 {
		t.Fatalf("busy draw = %v, want 1.96 W (Appendix P_ss)", m.Power(Busy))
	}
	if m.Power(Off) != 0.128 {
		t.Fatalf("off draw = %v, want 0.128 W (Appendix P_ss-idle)", m.Power(Off))
	}
	if m.Power(Booting) <= 0 || m.Power(Idle) <= 0 {
		t.Fatal("boot/idle draws must be positive")
	}
	// Off must be the lowest state by a wide margin (energy proportionality).
	if m.Power(Off) >= m.Power(Idle) {
		t.Fatal("off draw must be far below idle draw")
	}
}

func TestServerModelEndpoints(t *testing.T) {
	m := DefaultServerModel()
	if got := m.Power(0); got != 60 {
		t.Fatalf("idle draw = %v, want 60 W", got)
	}
	if got := m.Power(1); got != 150 {
		t.Fatalf("loaded draw = %v, want 150 W", got)
	}
	// Clamping.
	if m.Power(-1) != 60 || m.Power(2) != 150 {
		t.Fatal("utilization must clamp to [0,1]")
	}
}

func TestServerModelCalibrationPoint(t *testing.T) {
	// Six busy single-core VMs demand ≈39 % of the 12 cores (internal/model's
	// CPU tables) and must draw ≈112 W so that 32.0 J/function holds at
	// 211.7 func/min. The exact cross-package check lives in internal/model;
	// this guards the power side with a loose band.
	m := DefaultServerModel()
	got := float64(m.Power(0.39))
	if !approx(got, 112, 4) {
		t.Fatalf("draw at u=0.39 is %.1f W, want ≈112 W", got)
	}
}

func TestServerModelMonotoneConcave(t *testing.T) {
	m := DefaultServerModel()
	prev := m.Power(0)
	prevDelta := Watts(math.Inf(1))
	for i := 1; i <= 10; i++ {
		u := float64(i) / 10
		p := m.Power(u)
		if p < prev {
			t.Fatalf("power not monotone at u=%.1f", u)
		}
		delta := p - prev
		if delta > prevDelta+1e-9 {
			t.Fatalf("power not concave at u=%.1f (delta %v > %v)", u, delta, prevDelta)
		}
		prev, prevDelta = p, delta
	}
}

func TestServerModelZeroExponentFallsBackToLinear(t *testing.T) {
	m := ServerModel{IdleW: 60, LoadedW: 150}
	if got := m.Power(0.5); !approx(float64(got), 105, 1e-9) {
		t.Fatalf("linear fallback draw = %v, want 105", got)
	}
}

func TestSwitchModel(t *testing.T) {
	if got := DefaultSwitchModel().Power(); got != 40.87 {
		t.Fatalf("switch draw = %v, want 40.87 W (Appendix)", got)
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{Off: "off", Booting: "booting", Idle: "idle", Busy: "busy"}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("State(%d).String() = %q, want %q", s, s, want)
		}
	}
	if State(99).String() != "state(99)" {
		t.Fatalf("out-of-range state string = %q", State(99).String())
	}
}

func TestMeterEnergyBeforeFirstSet(t *testing.T) {
	m := NewMeter()
	// Querying before any Set is valid and reads zero at any timestamp,
	// including time zero and far in the future.
	if m.Energy("sbc-0", 0) != 0 || m.Energy("sbc-0", time.Hour) != 0 {
		t.Fatal("pre-registration reads must be zero")
	}
	if m.TotalEnergy(time.Hour) != 0 {
		t.Fatal("empty meter total must be zero")
	}
	// The first Set starts integration at its own timestamp; nothing is
	// retroactively accrued for the time before it.
	m.Set("sbc-0", 2, 10*time.Second)
	if got := m.Energy("sbc-0", 15*time.Second); !approx(float64(got), 10, 1e-9) {
		t.Fatalf("energy = %v, want 10 (5s at 2W, none before first Set)", got)
	}
}

func TestMeterEnergyReadBeforeLastUpdateClamps(t *testing.T) {
	m := NewMeter()
	m.Set("d", 1, 0)
	m.Set("d", 3, 10*time.Second) // banks 10 J
	// A read earlier than the device's last update reports the banked
	// energy only — never a negative extrapolation.
	if got := m.Energy("d", 5*time.Second); !approx(float64(got), 10, 1e-9) {
		t.Fatalf("backdated read = %v, want the 10 J banked", got)
	}
	if got := m.TotalEnergy(5 * time.Second); !approx(float64(got), 10, 1e-9) {
		t.Fatalf("backdated total = %v, want 10", got)
	}
	// Forward reads integrate normally again.
	if got := m.Energy("d", 12*time.Second); !approx(float64(got), 16, 1e-9) {
		t.Fatalf("forward read = %v, want 16", got)
	}
}

func TestMeterSetUnchangedPowerIsNoOp(t *testing.T) {
	m := NewMeter()
	m.Set("d", 2, 0)
	m.Set("d", 2, 3*time.Second) // same draw: banks and continues
	m.Set("d", 2, 7*time.Second)
	if got := m.Energy("d", 10*time.Second); !approx(float64(got), 20, 1e-9) {
		t.Fatalf("energy = %v, want 20 (10s at a constant 2W)", got)
	}
	if got := m.Power("d"); got != 2 {
		t.Fatalf("power = %v, want 2", got)
	}
}

// TestDeviceHandleMatchesStringAPI feeds one seeded stream of transitions
// and reads to two meters — one through Set/Energy by id only, one through
// a per-call coin flip between the id and the device's handle — and holds
// every reading equal by bits. The second meter takes its handles up front
// in reverse order, two one by one and then all five in one batch: taking a
// handle must not register the device, or TotalEnergy's summation order
// (first Set) would differ and so would its last bit, and a batch must
// hand back the handles already taken.
func TestDeviceHandleMatchesStringAPI(t *testing.T) {
	ids := []string{"sbc-00", "sbc-01", "sbc-02", "sbc-03", "sbc-04"}
	byID, mixed := NewMeter(), NewMeter()
	early := []*Device{mixed.Device(ids[4]), mixed.Device(ids[3])}
	reversed := []string{ids[4], ids[3], ids[2], ids[1], ids[0]}
	handles := mixed.Devices(reversed)
	slices.Reverse(handles)
	if handles[4] != early[0] || handles[3] != early[1] {
		t.Fatal("Devices returned new handles for ids Device had already handed out")
	}
	for i := range ids {
		if mixed.Device(ids[i]) != handles[i] {
			t.Fatalf("Device(%q) returned two different handles", ids[i])
		}
	}
	if got := registered(mixed); len(got) != 0 {
		t.Fatalf("handles alone registered %v", got)
	}
	rng := rand.New(rand.NewSource(1))
	var now time.Duration
	for step := 0; step < 2000; step++ {
		now += time.Duration(rng.Intn(1e6)) * time.Microsecond
		i := rng.Intn(len(ids))
		if rng.Intn(3) > 0 {
			p := Watts(rng.Float64() * 3)
			byID.Set(ids[i], p, now)
			if rng.Intn(2) == 0 {
				mixed.Set(ids[i], p, now)
			} else {
				handles[i].Set(p, now)
			}
		}
		want := byID.Energy(ids[i], now)
		if got := mixed.Energy(ids[i], now); got != want {
			t.Fatalf("step %d: Energy(%s) by id = %v, reference %v", step, ids[i], got, want)
		}
		if got := handles[i].Energy(now); got != want {
			t.Fatalf("step %d: Energy(%s) by handle = %v, reference %v", step, ids[i], got, want)
		}
		if got, want := mixed.TotalEnergy(now), byID.TotalEnergy(now); got != want {
			t.Fatalf("step %d: TotalEnergy = %v, reference %v", step, got, want)
		}
		if got, want := mixed.TotalPower(), byID.TotalPower(); got != want {
			t.Fatalf("step %d: TotalPower = %v, reference %v", step, got, want)
		}
		if got, want := registered(mixed), registered(byID); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: devices = %v, reference %v", step, got, want)
		}
	}
}

func TestDeviceHandleKeepsThePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic through the handle", name)
			}
		}()
		f()
	}
	d := NewMeter().Device("d")
	d.Set(1, 10*time.Second)
	mustPanic("backwards time", func() { d.Set(2, 5*time.Second) })
	mustPanic("negative draw", func() { d.Set(-1, 20*time.Second) })
	// A panicking Set releases the meter's lock and banks nothing.
	if got := d.Energy(20 * time.Second); got != 10 {
		t.Fatalf("energy after the refused updates = %v, want 10 J", got)
	}
}

// TestDeviceHandlesConcurrent is for the race detector: live workers report
// through their handles from their own goroutines while a scraper totals.
func TestDeviceHandlesConcurrent(t *testing.T) {
	m := NewMeter()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		d := m.Device(string(rune('a' + i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step := 1; step <= 500; step++ {
				now := time.Duration(step) * time.Millisecond
				d.Set(Watts(step%3), now)
				_ = d.Energy(now)
				_ = m.TotalEnergy(now)
			}
		}()
	}
	wg.Wait()
	if got := len(registered(m)); got != 8 {
		t.Fatalf("%d devices registered, want 8", got)
	}
}

// registered returns m's device ids in registration order, the order
// TotalEnergy sums them in.
func registered(m *Meter) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, len(m.order))
	for i, d := range m.order {
		ids[i] = d.id
	}
	return ids
}

// batchIDs names k batches of n devices each, "b<batch>-<device>".
func batchIDs(k, n int) [][]string {
	ids := make([][]string, k)
	for b := range ids {
		ids[b] = make([]string, n)
		for i := range ids[b] {
			ids[b][i] = fmt.Sprintf("b%02d-%03d", b, i)
		}
	}
	return ids
}

// allocsOnce counts what f allocates on one call (AllocsPerRun's warm-up
// call is skipped, so f runs once).
func allocsOnce(f func()) float64 {
	warm := true
	return testing.AllocsPerRun(1, func() {
		if warm {
			warm = false
			return
		}
		f()
	})
}

// TestMeterGrowSizesOnce: after Grow(n), batches adding up to n take
// their handles and register without regrowing the index or the
// registration list — each batch allocates its slab and its output slice
// and nothing else — in the order and with the handles of a meter never
// grown, and Grow on a non-empty meter keeps every handle taken before it.
func TestMeterGrowSizesOnce(t *testing.T) {
	const batches, batch = 16, 64
	ids := batchIDs(batches, batch)
	grown, plain := NewMeter(), NewMeter()
	var early []*Device
	for _, m := range []*Meter{grown, plain} {
		m.Set("switch", 40, 0)
		early = append(early, m.Device("switch"), m.Device("spare"))
	}
	grown.Grow(batches * batch)
	if grown.Device("switch") != early[0] || grown.Device("spare") != early[1] {
		t.Fatal("Grow replaced a handle taken before it")
	}
	for _, m := range []*Meter{grown, plain} {
		for b := range ids {
			allocs := allocsOnce(func() {
				for _, d := range m.Devices(ids[b]) {
					d.Set(1, time.Second)
				}
			})
			if m == grown && allocs > 2 {
				t.Fatalf("batch %d after Grow: %v allocations, want ≤ 2 (its slab and its handles)", b, allocs)
			}
		}
	}
	if got, want := registered(grown), registered(plain); !reflect.DeepEqual(got, want) {
		t.Fatalf("registration order after Grow %v, without %v", got, want)
	}
	if got, want := grown.TotalEnergy(time.Hour), plain.TotalEnergy(time.Hour); got != want {
		t.Fatalf("total energy after Grow %v, without %v", got, want)
	}
}

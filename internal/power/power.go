// Package power models electrical power draw and integrates it into energy.
//
// It is the repository's substitute for the WattsUp Pro meter the paper
// plugs each cluster into: every device (SBC, rack server, switch) reports
// its piecewise-constant power draw to a Meter, and the Meter integrates
// watts over (virtual or wall) time into joules. The device power models
// use the constants from the paper's Appendix.
package power

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"time"
)

// Watts is electrical power.
type Watts float64

// Joules is electrical energy.
type Joules float64

// Energy returns the energy consumed drawing p watts for d.
func Energy(p Watts, d time.Duration) Joules {
	return Joules(float64(p) * d.Seconds())
}

// State is a worker node's coarse operating state. The paper's power
// argument rests on exactly these states: a MicroFaaS node is either fully
// powered down, rebooting, or running a function.
type State int

const (
	// Off means the node is powered down (an SBC draws only its
	// power-management standby current; a server still idles at tens of watts).
	Off State = iota
	// Booting means the node is loading the worker OS.
	Booting
	// Idle means the node is up but not executing a function.
	Idle
	// Busy means the node is executing a function.
	Busy
)

var stateNames = [...]string{"off", "booting", "idle", "busy"}

// String renders the state as logged by the GPIO audit trail ("off",
// "booting", "idle", "busy").
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s]
}

// Meter integrates the power draw of a set of devices over time.
// Time is supplied by the caller on every update (monotone non-decreasing
// per device), so the same Meter works under the simulation's virtual clock
// and under the live cluster's wall clock. Meter is safe for concurrent
// use (live workers report from their own goroutines).
type Meter struct {
	mu      sync.Mutex
	devices map[string]*Device
	// order holds the devices in registration (first-Set) order. Totals sum
	// in this order, not map order: float addition is not associative, so
	// summing in randomized map order would perturb the last ULP from run to
	// run and break the simulator's bit-exact determinism guarantee.
	order []*Device
}

// Device is one device's handle on its Meter: the same Set and Energy the
// meter offers by id, without hashing the id on every power transition. A
// worker takes its handle once at construction. Taking a handle does not
// register the device — its first Set does, exactly as by id.
type Device struct {
	m          *Meter
	id         string
	registered bool // first Set seen; listed in m.order
	lastTime   time.Duration
	watts      Watts
	energy     Joules
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{} }

// Device returns the handle for device id, the same one on every call.
func (m *Meter) Device(id string) *Device { return m.Devices([]string{id})[0] }

// Grow makes room for n more devices, so a rack that registers its boards
// in batches sizes the meter's index and registration list once. Every
// handle taken before stays valid.
func (m *Meter) Grow(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	devices := make(map[string]*Device, len(m.devices)+n)
	maps.Copy(devices, m.devices)
	m.devices = devices
	m.order = slices.Grow(m.order, n)
}

// Devices returns the handles for ids in order, each the one Device
// returns for it: an id the meter knows keeps its handle, and the new ones
// come from one slab. A rack's boards take their handles in one call, so
// a board costs no allocation of its own, and the meter's index is sized
// to the first batch it sees unless Grow sized it.
func (m *Meter) Devices(ids []string) []*Device {
	out := make([]*Device, len(ids))
	m.mu.Lock()
	defer m.mu.Unlock()
	m.devicesLocked(ids, out)
	return out
}

// devicesLocked finds or creates the (not yet registered) handle of each
// of ids into out. Caller holds m.mu.
func (m *Meter) devicesLocked(ids []string, out []*Device) {
	if m.devices == nil {
		m.devices = make(map[string]*Device, len(ids))
	}
	var slab []Device
	for i, id := range ids {
		d, ok := m.devices[id]
		if !ok {
			if len(slab) == 0 {
				slab = make([]Device, len(ids)-i)
			}
			d, slab = &slab[0], slab[1:]
			d.m, d.id = m, id
			m.devices[id] = d
		}
		out[i] = d
	}
}

// Set records that device id draws p watts from time now onward.
// Energy accumulated at the previous level up to now is banked first.
// The first Set for a device starts its integration at now. Setting the
// level the device already draws is a harmless no-op (the bank-then-set
// leaves the integral unchanged); moving a device's clock backwards
// panics — per-device update times must be monotone.
func (m *Meter) Set(id string, p Watts, now time.Duration) {
	var d [1]*Device
	m.mu.Lock()
	defer m.mu.Unlock()
	m.devicesLocked([]string{id}, d[:])
	d[0].setLocked(p, now)
}

// Set is Meter.Set for this device.
func (d *Device) Set(p Watts, now time.Duration) {
	d.m.mu.Lock()
	defer d.m.mu.Unlock()
	d.setLocked(p, now)
}

// setLocked is the one implementation behind both Sets. Caller holds the
// meter's mutex.
func (d *Device) setLocked(p Watts, now time.Duration) {
	if p < 0 {
		panic(fmt.Sprintf("power: negative draw %v for %s", p, d.id))
	}
	if !d.registered {
		d.registered = true
		d.lastTime, d.watts = now, p
		d.m.order = append(d.m.order, d)
		return
	}
	if now < d.lastTime {
		panic(fmt.Sprintf("power: time went backwards for %s: %v < %v", d.id, now, d.lastTime))
	}
	d.energy += Energy(d.watts, now-d.lastTime)
	d.lastTime = now
	d.watts = p
}

// Energy returns device id's accumulated energy up to now. Querying a
// device the meter has never seen reads as zero (asking before the first
// Set is valid, not an error). A now earlier than the device's last
// update reports only the energy banked so far: reads clamp rather than
// extrapolate backwards into negative joules, so a racing wall-clock
// reader can never observe energy decrease.
func (m *Meter) Energy(id string, now time.Duration) Joules {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.devices[id]
	if !ok {
		return 0
	}
	return d.readLocked(now)
}

// Energy is Meter.Energy for this device.
func (d *Device) Energy(now time.Duration) Joules {
	d.m.mu.Lock()
	defer d.m.mu.Unlock()
	return d.readLocked(now)
}

// TotalEnergy returns the energy of all devices up to now (per-device
// reads clamp exactly as Energy does).
func (m *Meter) TotalEnergy(now time.Duration) Joules {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum Joules
	for _, d := range m.order {
		sum += d.readLocked(now)
	}
	return sum
}

// readLocked integrates a device's energy up to now, clamping reads that
// predate its last update; a device never Set draws nothing and reads
// zero. Caller holds the meter's mutex.
func (d *Device) readLocked(now time.Duration) Joules {
	if now <= d.lastTime {
		return d.energy
	}
	return d.energy + Energy(d.watts, now-d.lastTime)
}

// Power returns the instantaneous draw of a single device.
func (m *Meter) Power(id string) Watts {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.devices[id]
	if !ok {
		return 0
	}
	return d.watts
}

// TotalPower returns the instantaneous draw across all devices — what the
// WattsUp display would read at this moment.
func (m *Meter) TotalPower() Watts {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum Watts
	for _, d := range m.order {
		sum += d.watts
	}
	return sum
}

// SBCModel maps an SBC worker's state to its power draw. Defaults come
// from the paper's Appendix: 1.96 W under load, 0.128 W powered down.
type SBCModel struct {
	BusyW Watts // draw while executing a function
	BootW Watts // draw while booting (CPU + eMMC + PHY active)
	IdleW Watts // draw while up but idle (nodes rarely linger here)
	OffW  Watts // standby draw while powered down
}

// DefaultSBCModel returns the BeagleBone Black model from the paper's
// Appendix. Boot draw is taken equal to busy draw: during the 1.51 s boot
// the CPU is near-fully loaded (Fig 1's CPU-time bars track real time).
func DefaultSBCModel() SBCModel {
	return SBCModel{BusyW: 1.96, BootW: 1.96, IdleW: 1.10, OffW: 0.128}
}

// Power returns the draw in the given state.
func (m SBCModel) Power(s State) Watts {
	switch s {
	case Off:
		return m.OffW
	case Booting:
		return m.BootW
	case Idle:
		return m.IdleW
	default:
		return m.BusyW
	}
}

// ServerModel maps a rack server's utilization to power draw. The paper
// assumes 60 W idle and 150 W loaded; real servers are concave between the
// two (they reach most of peak draw well before full utilization), which the
// Exponent captures. Exponent is calibrated so that six busy VMs on the
// 12-core evaluation server (≈39 % core utilization under internal/model's
// CPU-demand tables) draw ≈112 W, reproducing the paper's measured
// 32.0 J/function at 211.7 func/min; the calibration test lives in
// internal/model.
type ServerModel struct {
	// IdleW is the draw in watts at 0% CPU.
	IdleW Watts
	// LoadedW is the draw in watts at 100% CPU.
	LoadedW Watts
	// Exponent shapes the concave idle-to-loaded curve (1 = linear;
	// values below 1 reach peak draw early).
	Exponent float64
}

// DefaultServerModel returns the calibrated model of the evaluation rack
// server (Thinkmate RAX, 12-core Opteron 6172).
func DefaultServerModel() ServerModel {
	return ServerModel{IdleW: 60, LoadedW: 150, Exponent: 0.574}
}

// Power returns the draw at CPU utilization u in [0,1]. Values outside the
// range are clamped.
func (m ServerModel) Power(u float64) Watts {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	exp := m.Exponent
	if exp <= 0 {
		exp = 1
	}
	return m.IdleW + Watts(math.Pow(u, exp))*(m.LoadedW-m.IdleW)
}

// SwitchModel is the constant draw of a top-of-rack Ethernet switch
// (40.87 W for the Cisco Catalyst 2960S-48LPS in the paper's Appendix).
type SwitchModel struct {
	// DrawW is the switch's constant draw in watts, load-independent.
	DrawW Watts
}

// DefaultSwitchModel returns the Catalyst 2960S-48LPS draw from the Appendix.
func DefaultSwitchModel() SwitchModel { return SwitchModel{DrawW: 40.87} }

// Power returns the switch draw (state-independent).
func (m SwitchModel) Power() Watts { return m.DrawW }

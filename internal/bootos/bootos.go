// Package bootos models the worker operating system's boot process and the
// sequence of optimizations the paper applies to it (Sec IV-A, Fig 1).
//
// The paper builds a Linux-From-Scratch-style worker OS and drives its boot
// time down through nine documented optimizations (labelled A-I), ending at
// 1.51 s wall-clock on the ARM SBC and 0.96 s on x86. We do not have the
// hardware to re-measure each development stage, so this package substitutes
// a component model: boot time is the sum of labelled components
// (bootloader, kernel, network driver, network configuration, userspace),
// and each optimization removes a documented amount of Real (wall-clock) and
// CPU (non-idle) time from one component. The per-stage reductions are
// synthetic but preserve each optimization's described effect — e.g.
// skipping Ethernet auto-negotiation (F) removes seconds of Real time but
// almost no CPU time, while trimming the kernel config (B) removes both.
// The final stage reproduces the paper's 1.51 s / 0.96 s exactly.
package bootos

import (
	"fmt"
	"time"
)

// Platform selects the worker hardware the OS boots on.
type Platform int

const (
	// ARM is the BeagleBone Black's TI Sitara AM3358 (Cortex-A8, 1 GHz).
	ARM Platform = iota
	// X86 is a QEMU microVM vCPU on the Opteron 6172 rack server.
	X86
)

func (p Platform) String() string {
	if p == ARM {
		return "arm"
	}
	return "x86"
}

// Component is one labelled slice of the boot process.
type Component struct {
	Name string
	Real time.Duration // wall-clock time from power-on contribution
	CPU  time.Duration // time the CPU is non-idle during this slice
}

// Profile is the boot behaviour of one OS build on one platform.
type Profile struct {
	Platform   Platform
	Components []Component
}

// RealTime is the wall-clock time from power-on to first network
// connection — the paper's "Real" series in Fig 1.
func (p Profile) RealTime() time.Duration {
	var sum time.Duration
	for _, c := range p.Components {
		sum += c.Real
	}
	return sum
}

// CPUTime is the total non-idle CPU time during boot — Fig 1's "CPU".
func (p Profile) CPUTime() time.Duration {
	var sum time.Duration
	for _, c := range p.Components {
		sum += c.CPU
	}
	return sum
}

// clone returns a deep copy so optimizations never alias profiles.
func (p Profile) clone() Profile {
	out := Profile{Platform: p.Platform, Components: make([]Component, len(p.Components))}
	copy(out.Components, p.Components)
	return out
}

// Optimization is one development step from Fig 1. Applying it subtracts
// Real/CPU time from one component of the profile.
type Optimization struct {
	// ID is the paper's single-letter label (A-I).
	ID string
	// Name describes the change, e.g. "skip Ethernet auto-negotiation".
	Name string
	// Component names the boot slice the change shortens.
	Component string
	// Reduction maps platform -> (Real, CPU) time removed. A platform
	// absent from the map is unaffected (e.g. the vendor PHY patch G only
	// applies to the SBC).
	Reduction map[Platform][2]time.Duration
}

// Apply returns prof with the optimization's reduction subtracted. It
// panics if the reduction would drive a component negative, which would
// indicate an inconsistent model.
func (o Optimization) Apply(prof Profile) Profile {
	red, ok := o.Reduction[prof.Platform]
	if !ok {
		return prof.clone()
	}
	out := prof.clone()
	for i := range out.Components {
		c := &out.Components[i]
		if c.Name != o.Component {
			continue
		}
		c.Real -= red[0]
		c.CPU -= red[1]
		if c.Real < 0 || c.CPU < 0 {
			panic(fmt.Sprintf("bootos: optimization %s drives component %s negative", o.ID, c.Name))
		}
		return out
	}
	panic(fmt.Sprintf("bootos: optimization %s targets unknown component %s", o.ID, o.Component))
}

const (
	compBootloader = "bootloader"
	compKernel     = "kernel"
	compNetDriver  = "netdriver"
	compNetConfig  = "netconfig"
	compUserspace  = "userspace"
)

// ms builds a duration from milliseconds, keeping the tables readable.
func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

// FinalProfile returns the fully-optimized worker OS boot profile. Its
// RealTime matches the paper exactly: 1.51 s on ARM, 0.96 s on x86.
func FinalProfile(p Platform) Profile {
	switch p {
	case ARM:
		return Profile{Platform: ARM, Components: []Component{
			{compBootloader, ms(180), ms(60)}, // U-Boot falcon mode: SPL loads the kernel directly
			{compKernel, ms(620), ms(600)},    // decompress + core init of the trimmed kernel
			{compNetDriver, ms(240), ms(80)},  // patched CPSW driver, no autoneg, no PHY reset
			{compNetConfig, ms(60), ms(20)},   // static IPv4 from the kernel command line
			{compUserspace, ms(410), ms(350)}, // initramfs: BusyBox init + MicroPython
		}}
	case X86:
		return Profile{Platform: X86, Components: []Component{
			{compBootloader, ms(150), ms(30)},
			{compKernel, ms(420), ms(400)},
			{compNetDriver, ms(130), ms(40)},
			{compNetConfig, ms(40), ms(15)},
			{compUserspace, ms(220), ms(190)},
		}}
	default:
		panic(fmt.Sprintf("bootos: unknown platform %d", int(p)))
	}
}

// Optimizations returns the paper's nine development steps in the order we
// present the timeline. Reductions are the synthetic per-stage savings
// described in the package comment.
func Optimizations() []Optimization {
	return []Optimization{
		{
			ID: "A", Name: "kernel version selection", Component: compKernel,
			Reduction: map[Platform][2]time.Duration{
				ARM: {ms(800), ms(500)},
				X86: {ms(600), ms(350)},
			},
		},
		{
			ID: "B", Name: "minimal kernel configuration", Component: compKernel,
			Reduction: map[Platform][2]time.Duration{
				ARM: {ms(5200), ms(3300)},
				X86: {ms(3400), ms(2300)},
			},
		},
		{
			ID: "C", Name: "MicroPython-only initramfs", Component: compUserspace,
			Reduction: map[Platform][2]time.Duration{
				ARM: {ms(7400), ms(4100)},
				X86: {ms(5200), ms(3100)},
			},
		},
		{
			ID: "D", Name: "initramfs as sole root filesystem", Component: compUserspace,
			Reduction: map[Platform][2]time.Duration{
				ARM: {ms(2600), ms(900)},
				X86: {ms(1800), ms(600)},
			},
		},
		{
			ID: "E", Name: "U-Boot falcon mode", Component: compBootloader,
			Reduction: map[Platform][2]time.Duration{
				ARM: {ms(1900), ms(500)}, // SBC-only: microVMs have no U-Boot
			},
		},
		{
			ID: "F", Name: "skip Ethernet auto-negotiation", Component: compNetDriver,
			Reduction: map[Platform][2]time.Duration{
				ARM: {ms(2700), ms(30)}, // seconds of Real time, near-zero CPU
				X86: {ms(2700), ms(20)},
			},
		},
		{
			ID: "G", Name: "avoid PHY hardware reset (vendor patch)", Component: compNetDriver,
			Reduction: map[Platform][2]time.Duration{
				ARM: {ms(1400), ms(20)}, // SBC-only vendor-specific patch
			},
		},
		{
			ID: "H", Name: "static IPv4 via kernel arguments (no DHCP)", Component: compNetConfig,
			Reduction: map[Platform][2]time.Duration{
				ARM: {ms(3100), ms(120)},
				X86: {ms(3100), ms(100)},
			},
		},
		{
			ID: "I", Name: "early network driver initialization", Component: compNetDriver,
			Reduction: map[Platform][2]time.Duration{
				ARM: {ms(900), ms(100)},
				X86: {ms(700), ms(80)},
			},
		},
	}
}

// BaselineProfile returns the stage-0 (unoptimized) boot profile: the final
// profile with every optimization's savings added back.
func BaselineProfile(p Platform) Profile {
	prof := FinalProfile(p)
	for _, o := range Optimizations() {
		red, ok := o.Reduction[p]
		if !ok {
			continue
		}
		for i := range prof.Components {
			if prof.Components[i].Name == o.Component {
				prof.Components[i].Real += red[0]
				prof.Components[i].CPU += red[1]
				break
			}
		}
	}
	return prof
}

// Stage is one point on the Fig 1 development timeline.
type Stage struct {
	// Label is "baseline" or the optimization's "ID: name".
	Label   string
	Profile Profile
}

// Timeline returns the cumulative development history for a platform:
// stage 0 is the baseline, and each later stage applies one more
// optimization, ending at the final profile.
func Timeline(p Platform) []Stage {
	prof := BaselineProfile(p)
	stages := []Stage{{Label: "baseline", Profile: prof}}
	for _, o := range Optimizations() {
		prof = o.Apply(prof)
		stages = append(stages, Stage{
			Label:   fmt.Sprintf("%s: %s", o.ID, o.Name),
			Profile: prof,
		})
	}
	return stages
}

// bootTotals is a platform's final boot time and the CPU's share of it.
type bootTotals struct {
	real    time.Duration
	cpuFrac float64
}

// finalBoot holds each platform's bootTotals, computed once: every
// simulated board reads its boot time when it is built, and every microVM
// cold boot reads the CPU share.
var finalBoot = [...]bootTotals{ARM: totalsOf(ARM), X86: totalsOf(X86)}

func totalsOf(p Platform) bootTotals {
	prof := FinalProfile(p)
	return bootTotals{real: prof.RealTime(), cpuFrac: float64(prof.CPUTime()) / float64(prof.RealTime())}
}

// BootTime returns the fully-optimized wall-clock boot time for a platform.
// This is the value every node model in the simulator uses: 1.51 s for SBC
// workers, 0.96 s for microVM workers.
func BootTime(p Platform) time.Duration { return finalBoot[p].real }

// BootCPUFraction returns the share of boot wall-clock time during which
// the CPU is non-idle. The rack server's contention model uses this: a
// booting VM loads its host core at this fraction.
func BootCPUFraction(p Platform) float64 { return finalBoot[p].cpuFrac }

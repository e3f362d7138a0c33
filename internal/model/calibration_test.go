package model

import (
	"math"
	"testing"
	"time"

	"microfaas/internal/netsim"
	"microfaas/internal/power"
)

// within asserts |got-want|/want <= tol.
func within(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero target", what)
	}
	if math.Abs(got-want)/math.Abs(want) > tol {
		t.Fatalf("%s = %.3f, want %.3f ± %.0f%%", what, got, want, tol*100)
	}
}

func TestSeventeenFunctions(t *testing.T) {
	fs := Functions()
	if len(fs) != 17 {
		t.Fatalf("suite has %d functions, want 17 (Table I)", len(fs))
	}
	cpu, net := 0, 0
	for _, f := range fs {
		switch f.Class {
		case CPUBound:
			cpu++
		case NetworkBound:
			net++
		}
		if f.Class == NetworkBound && f.Service == ServiceNone {
			t.Fatalf("%s is network-bound but has no backing service", f.Name)
		}
		if f.Class == CPUBound && f.Service != ServiceNone {
			t.Fatalf("%s is CPU-bound but names service %q", f.Name, f.Service)
		}
		if f.WorkARM <= 0 || f.WorkX86 <= 0 || f.CPUFrac <= 0 || f.CPUFrac > 1 {
			t.Fatalf("%s has implausible parameters: %+v", f.Name, f)
		}
	}
	if cpu != 9 || net != 8 {
		t.Fatalf("class split = %d CPU / %d network, want 9/8 (Table I)", cpu, net)
	}
	// Table I stars six FunctionBench-derived functions.
	stars := 0
	for _, f := range fs {
		if f.FromFunctionBench {
			stars++
		}
	}
	if stars != 6 {
		t.Fatalf("%d FunctionBench adaptations, want 6", stars)
	}
}

func TestClusterThroughputMatchesPaper(t *testing.T) {
	// Sec V: 10 SBCs → 200.6 func/min; 6 VMs → 211.7 func/min.
	sbc := ClusterThroughput(SBCCount, ARM, DefaultWorkerLink(ARM))
	within(t, "10-SBC throughput (func/min)", sbc, PaperSBCThroughput, 0.02)
	vm := ClusterThroughput(VMCount, X86, DefaultWorkerLink(X86))
	within(t, "6-VM throughput (func/min)", vm, PaperVMThroughput, 0.02)
}

func TestFasterAndHalfSpeedCounts(t *testing.T) {
	// Sec V: "out of 17 functions, the MicroFaaS cluster executes four
	// faster than the conventional cluster and nine at more than half the
	// speed of the conventional cluster."
	armLink, x86Link := DefaultWorkerLink(ARM), DefaultWorkerLink(X86)
	faster, atHalf, below := 0, 0, 0
	for _, f := range Functions() {
		arm := f.TotalTime(ARM, armLink)
		x86 := f.TotalTime(X86, x86Link)
		ratio := float64(x86) / float64(arm) // MicroFaaS speed relative to conventional
		switch {
		case ratio > 1:
			faster++
		case ratio > 0.5:
			atHalf++
		default:
			below++
		}
	}
	if faster != 4 {
		t.Errorf("functions faster on MicroFaaS = %d, want 4", faster)
	}
	if atHalf != 9 {
		t.Errorf("functions at more than half speed = %d, want 9", atHalf)
	}
	if below != 4 {
		t.Errorf("functions below half speed = %d, want 4", below)
	}
	if t.Failed() {
		for _, f := range Functions() {
			arm := f.TotalTime(ARM, armLink)
			x86 := f.TotalTime(X86, x86Link)
			t.Logf("%-12s arm=%-8v x86=%-8v speed-ratio=%.3f",
				f.Name, arm.Round(time.Millisecond), x86.Round(time.Millisecond),
				float64(x86)/float64(arm))
		}
	}
}

func TestFastFourAreChattySmallPayloadFunctions(t *testing.T) {
	// The mechanism behind the fast four: bridged-virtio per-RTT penalty on
	// chatty protocols. Verify the winners are exactly the KV/MQ ops.
	armLink, x86Link := DefaultWorkerLink(ARM), DefaultWorkerLink(X86)
	want := map[string]bool{"RedisInsert": true, "RedisUpdate": true, "MQProduce": true, "MQConsume": true}
	for _, f := range Functions() {
		faster := f.TotalTime(ARM, armLink) < f.TotalTime(X86, x86Link)
		if faster != want[f.Name] {
			t.Errorf("%s: faster-on-MicroFaaS = %v, want %v", f.Name, faster, want[f.Name])
		}
	}
}

func TestMicroFaaSEnergyPerFunction(t *testing.T) {
	// An SBC draws its busy power for the whole cycle (boot + job): 5.7 J.
	sbc := power.DefaultSBCModel()
	cycle := MeanCycleTime(ARM, DefaultWorkerLink(ARM))
	joules := float64(power.Energy(sbc.BusyW, cycle))
	within(t, "MicroFaaS J/function", joules, PaperMicroFaaSJoulesPerFunc, 0.05)
}

func TestConventionalEnergyPerFunction(t *testing.T) {
	// Six busy VMs: server power at their utilization over the cluster's
	// throughput: 32.0 J/function.
	srv := power.DefaultServerModel()
	util := vmUtilization(VMCount)
	watts := float64(srv.Power(util))
	thpt := ClusterThroughput(VMCount, X86, DefaultWorkerLink(X86)) / 60 // func/s
	joules := watts / thpt
	within(t, "conventional J/function", joules, PaperConventionalJoulesPerFunc, 0.05)
}

func TestPeakConventionalEfficiency(t *testing.T) {
	// Fig 4: saturating the server with VMs reaches ≈16.1 J/function.
	srv := power.DefaultServerModel()
	joules := float64(srv.Power(1)) / (SaturatedThroughput() / 60)
	within(t, "peak conventional J/function", joules, PaperPeakConventionalJoulesPerFunc, 0.05)
}

func TestHeadlineEfficiencyGain(t *testing.T) {
	sbc := power.DefaultSBCModel()
	mfJ := float64(power.Energy(sbc.BusyW, MeanCycleTime(ARM, DefaultWorkerLink(ARM))))
	srv := power.DefaultServerModel()
	convJ := float64(srv.Power(vmUtilization(VMCount))) /
		(ClusterThroughput(VMCount, X86, DefaultWorkerLink(X86)) / 60)
	within(t, "energy-efficiency gain (x)", convJ/mfJ, PaperEnergyEfficiencyGain, 0.05)
}

func TestVMUtilizationSaneAtSixVMs(t *testing.T) {
	u := vmUtilization(VMCount)
	if u <= 0.25 || u >= 0.6 {
		t.Fatalf("utilization at 6 VMs = %.3f, expect mid-range (six single-core VMs on 12 cores)", u)
	}
	// Saturation should land in the mid-teens of VMs (Fig 4's sweep).
	nSat := 1
	for vmUtilization(nSat) < 1 {
		nSat++
		if nSat > 50 {
			t.Fatal("server never saturates")
		}
	}
	if nSat < 12 || nSat > 20 {
		t.Fatalf("saturation at %d VMs, expect 12–20", nSat)
	}
}

func TestExecAndOverheadComposition(t *testing.T) {
	link := DefaultWorkerLink(ARM)
	for _, f := range Functions() {
		if got := f.TotalTime(ARM, link); got != f.ExecTime(ARM, link)+f.OverheadTime(ARM, link) {
			t.Fatalf("%s: total != exec + overhead", f.Name)
		}
		if f.ExecTime(ARM, link) < f.Work(ARM) {
			t.Fatalf("%s: exec < pure work", f.Name)
		}
		if f.CPUTime(ARM) > f.TotalTime(ARM, link) {
			t.Fatalf("%s: CPU demand exceeds wall time", f.Name)
		}
	}
}

func TestCOSGetDominatedByFastEthernetTransfer(t *testing.T) {
	// Sec V: upgrading the SBC NIC to GigE "would likely reduce the
	// overhead of functions like COSGet" — the 8 MiB download must dominate
	// COSGet's ARM runtime on Fast Ethernet.
	f := specNamed(t, "COSGet")
	fe := f.ExecTime(ARM, netsim.FastEthernet())
	ge := f.ExecTime(ARM, netsim.GigabitEthernet())
	if fe < 2*ge {
		t.Fatalf("COSGet on FE %v vs GigE %v: transfer should dominate", fe, ge)
	}
}

func TestFunctionsReturnsCopy(t *testing.T) {
	fs := Functions()
	fs[0].WorkARM = time.Hour
	if Functions()[0].WorkARM == time.Hour {
		t.Fatal("Functions leaked internal slice")
	}
}

// vmUtilization is the fraction of the rack server's cores demanded by n
// always-busy VMs (may exceed 1, meaning saturation).
func vmUtilization(n int) float64 {
	link := DefaultWorkerLink(X86)
	perVM := float64(MeanCPUPerJob(X86)) / float64(MeanCycleTime(X86, link))
	return float64(n) * perVM / ServerCores
}

// specNamed returns the calibration table's spec for name.
func specNamed(t *testing.T, name string) FunctionSpec {
	t.Helper()
	for _, f := range Functions() {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no function %q in the calibration table", name)
	return FunctionSpec{}
}

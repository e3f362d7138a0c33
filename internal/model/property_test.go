package model

import (
	"testing"
	"testing/quick"
	"time"

	"microfaas/internal/netsim"
)

// Model invariants that hold for every function on every plausible link —
// the structural sanity the calibration tests (which pin aggregate values)
// don't cover.

func allLinks() []netsim.Link {
	return []netsim.Link{
		netsim.FastEthernet(),
		netsim.GigabitEthernet(),
		netsim.BridgedVirtio(),
	}
}

func TestTotalTimeComposesEverywhere(t *testing.T) {
	for _, p := range []Platform{ARM, X86} {
		for _, link := range allLinks() {
			for _, f := range Functions() {
				if f.TotalTime(p, link) != f.ExecTime(p, link)+f.OverheadTime(p, link) {
					t.Fatalf("%s on %v/%s: total != exec+overhead", f.Name, p, link.Name)
				}
			}
		}
	}
}

func TestFasterLinkNeverSlowsAnything(t *testing.T) {
	fe, ge := netsim.FastEthernet(), netsim.GigabitEthernet()
	for _, p := range []Platform{ARM, X86} {
		for _, f := range Functions() {
			if f.TotalTime(p, ge) > f.TotalTime(p, fe) {
				t.Fatalf("%s on %v: GigE (%v) slower than Fast Ethernet (%v)",
					f.Name, p, f.TotalTime(p, ge), f.TotalTime(p, fe))
			}
		}
	}
}

func TestVirtioPenaltyNeverHelps(t *testing.T) {
	ge, vio := netsim.GigabitEthernet(), netsim.BridgedVirtio()
	for _, f := range Functions() {
		if f.TotalTime(X86, vio) < f.TotalTime(X86, ge) {
			t.Fatalf("%s: bridged virtio faster than bare-metal GigE", f.Name)
		}
	}
}

func TestCPUDemandBounded(t *testing.T) {
	for _, p := range []Platform{ARM, X86} {
		for _, link := range allLinks() {
			for _, f := range Functions() {
				cpu := f.CPUTime(p)
				if cpu <= 0 {
					t.Fatalf("%s on %v: non-positive CPU time", f.Name, p)
				}
				if cpu > f.TotalTime(p, link) {
					t.Fatalf("%s on %v/%s: CPU %v exceeds wall %v",
						f.Name, p, link.Name, cpu, f.TotalTime(p, link))
				}
			}
		}
	}
}

func TestARMNeverOutcomputesX86(t *testing.T) {
	// Pure compute: the 1 GHz Cortex-A8 never beats the Opteron core. (The
	// four total-time wins come from networking, not compute.)
	for _, f := range Functions() {
		if f.WorkARM < f.WorkX86 {
			t.Fatalf("%s: ARM compute %v < x86 %v", f.Name, f.WorkARM, f.WorkX86)
		}
	}
}

func TestOverheadGrowsWithPayloadProperty(t *testing.T) {
	base := specNamed(t, "FloatOps")
	link := DefaultWorkerLink(ARM)
	prop := func(extraKB uint16) bool {
		bigger := base
		bigger.InputBytes += int(extraKB) * 1024
		return bigger.OverheadTime(ARM, link) >= base.OverheadTime(ARM, link)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputScalesLinearlyInNodes(t *testing.T) {
	link := DefaultWorkerLink(ARM)
	one := ClusterThroughput(1, ARM, link)
	for _, n := range []int{2, 10, 100, 989} {
		got := ClusterThroughput(n, ARM, link)
		want := one * float64(n)
		if got < want*0.999 || got > want*1.001 {
			t.Fatalf("throughput(%d) = %v, want %v (perfect linearity: no shared resources)", n, got, want)
		}
	}
}

// n always-busy VMs demand n times one VM's cores — exactly the model's
// throughput times its CPU per job, spread over the server's cores.
func TestVMUtilizationLinearInVMs(t *testing.T) {
	link := DefaultWorkerLink(X86)
	u1 := vmUtilization(1)
	if u1 <= 0 {
		t.Fatal("single VM demands no CPU")
	}
	for _, n := range []int{2, 6, 12} {
		got := vmUtilization(n)
		if got < u1*float64(n)*0.999 || got > u1*float64(n)*1.001 {
			t.Fatalf("utilization(%d) = %v, want %v", n, got, u1*float64(n))
		}
		want := ClusterThroughput(n, X86, link) / 60 * MeanCPUPerJob(X86).Seconds() / ServerCores
		if got < want*0.999 || got > want*1.001 {
			t.Fatalf("utilization(%d) = %v, but throughput × CPU per job gives %v", n, got, want)
		}
	}
}

func TestMeanCycleDominatedByBootPlusWork(t *testing.T) {
	// The mean ARM cycle must exceed the boot alone and the mean work alone.
	link := DefaultWorkerLink(ARM)
	cycle := MeanCycleTime(ARM, link)
	if cycle <= MeanJobTime(ARM, link) {
		t.Fatal("cycle does not include the boot")
	}
	if cycle <= 1510*time.Millisecond {
		t.Fatal("cycle shorter than the boot itself")
	}
}

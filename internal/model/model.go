// Package model holds the calibrated performance model of the paper's two
// clusters: per-function service times for the 17 Table-I workloads on ARM
// (BeagleBone Black) and x86 (QEMU microVM) workers, payload sizes, CPU
// demand fractions, and the paper's published aggregate results.
//
// We cannot re-measure the original hardware, so the free parameters here
// are fitted to everything the paper reports (see DESIGN.md §4):
//
//   - 10 SBCs sustain 200.6 func/min; 6 VMs sustain 211.7 func/min, where
//     every job cycle includes the worker-OS boot (1.51 s ARM / 0.96 s x86).
//   - Of the 17 functions, MicroFaaS runs exactly 4 faster than the
//     conventional cluster and 9 more at better than half its speed
//     (Sec V). The fast four are the small-payload, chatty KV and MQ
//     functions, where the microVMs' bridged-virtio per-round-trip penalty
//     outweighs the x86 cores' compute advantage; the slowest four are the
//     crypto/hash kernels and the bulk COSGet download (Fast Ethernet).
//   - The conventional cluster costs 32.0 J/function at 6 VMs and peaks at
//     ≈16.1 J/function when VMs saturate the 12-core server (Fig 4).
//   - The MicroFaaS cluster costs 5.7 J/function (5.6× better).
//
// The calibration test in this package recomputes all aggregates from the
// tables and fails if any drifts outside tolerance, so the tables cannot
// silently decay.
package model

import (
	"time"

	"microfaas/internal/bootos"
	"microfaas/internal/netsim"
)

// Platform aliases the boot model's platform type: workers are either the
// ARM SBC or the x86 microVM.
type Platform = bootos.Platform

// Re-exported for callers that only import model.
const (
	ARM = bootos.ARM
	X86 = bootos.X86
)

// Class groups Table I's two workload families.
type Class int

const (
	// CPUBound covers the "CPU- or RAM-bound" column of Table I.
	CPUBound Class = iota
	// NetworkBound covers the "Network-bound" column.
	NetworkBound
)

func (c Class) String() string {
	if c == CPUBound {
		return "cpu-bound"
	}
	return "network-bound"
}

// Service names for FunctionSpec.Service.
const (
	ServiceNone     = ""
	ServiceKVStore  = "kvstore"
	ServiceSQLStore = "sqlstore"
	ServiceObjStore = "objstore"
	ServiceMQ       = "mq"
)

// FunctionSpec describes one Table-I workload function's calibrated
// performance model.
type FunctionSpec struct {
	// Name matches Table I (e.g. "CascSHA").
	Name string
	// Class is CPU/RAM-bound or network-bound.
	Class Class
	// Description is the Table-I description.
	Description string
	// Service is the backing service the function talks to ("" for none).
	Service string
	// WorkARM/WorkX86 are the pure compute portions of execution.
	WorkARM, WorkX86 time.Duration
	// CPUFrac is the share of compute time that loads the CPU (the rest is
	// waiting on the backing service); it feeds the rack server's
	// contention model.
	CPUFrac float64
	// InputBytes/OutputBytes are the OP→worker argument payload and the
	// worker→OP result payload.
	InputBytes, OutputBytes int
	// ServiceBytes is bulk data moved to or from the backing service
	// during execution (e.g. the COSGet object download).
	ServiceBytes int
	// ServiceRTTs counts application-level round trips to the backing
	// service during execution (protocol chatter).
	ServiceRTTs int
	// FromFunctionBench marks the Table-I asterisk: adapted from or
	// inspired by FunctionBench.
	FromFunctionBench bool
}

// handshakeRTTs is the per-invocation OP↔worker protocol chatter: TCP
// connect, job header, result acknowledgement.
const handshakeRTTs = 3

// Protocol-handling cost on the worker (MicroPython parsing and encoding
// the invocation payloads): a fixed base plus a per-KiB term.
const (
	overheadBaseARM  = 40 * time.Millisecond
	overheadBaseX86  = 15 * time.Millisecond
	overheadPerKBARM = 250 * time.Microsecond
	overheadPerKBX86 = 80 * time.Microsecond
)

// Work returns the platform's pure-compute execution time.
func (s FunctionSpec) Work(p Platform) time.Duration {
	if p == ARM {
		return s.WorkARM
	}
	return s.WorkX86
}

// ExecTime is the function's "Working" time in Fig 3's terms: compute plus
// backing-service transfers and round trips over the worker's link.
func (s FunctionSpec) ExecTime(p Platform, link netsim.Link) time.Duration {
	d := s.Work(p)
	if s.ServiceBytes > 0 {
		d += link.TransferTime(s.ServiceBytes)
	}
	if s.ServiceRTTs > 0 {
		d += link.RoundTrips(s.ServiceRTTs)
	}
	return d
}

// overheadWork is the CPU-bound protocol handling portion of Overhead.
func (s FunctionSpec) overheadWork(p Platform) time.Duration {
	kb := float64(s.InputBytes+s.OutputBytes) / 1024
	if p == ARM {
		return overheadBaseARM + time.Duration(kb*float64(overheadPerKBARM))
	}
	return overheadBaseX86 + time.Duration(kb*float64(overheadPerKBX86))
}

// OverheadTime is Fig 3's "Overhead": receiving the function input and
// returning the result over the network, including the worker-side protocol
// handling and the OP↔worker handshake.
func (s FunctionSpec) OverheadTime(p Platform, link netsim.Link) time.Duration {
	return s.overheadWork(p) +
		link.RoundTrips(handshakeRTTs) +
		link.TransferTime(s.InputBytes) +
		link.TransferTime(s.OutputBytes)
}

// TotalTime is ExecTime + OverheadTime: the per-invocation runtime Fig 3
// reports (excluding the reboot, which Fig 3 does not chart).
func (s FunctionSpec) TotalTime(p Platform, link netsim.Link) time.Duration {
	return s.ExecTime(p, link) + s.OverheadTime(p, link)
}

// CPUTime is the CPU demand of one invocation (excluding boot): the
// CPU-loaded share of compute plus all protocol handling. The rack server's
// processor-sharing model schedules this demand across its cores.
func (s FunctionSpec) CPUTime(p Platform) time.Duration {
	return time.Duration(float64(s.Work(p))*s.CPUFrac) + s.overheadWork(p)
}

// DefaultWorkerLink returns the worker's last-hop link in the paper's
// evaluation: bare-metal Fast Ethernet for the SBC, bridged virtio on the
// host's gigabit NIC for the microVM.
func DefaultWorkerLink(p Platform) netsim.Link {
	if p == ARM {
		return netsim.FastEthernet()
	}
	return netsim.BridgedVirtio()
}

// ms converts integer milliseconds, keeping the table readable.
func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

// functions is the calibrated Table-I workload suite. Ordering matches
// Table I (CPU/RAM-bound column first).
var functions = []FunctionSpec{
	{Name: "FloatOps", Class: CPUBound, Description: "floating-point trigonometric operations",
		WorkARM: ms(1480), WorkX86: ms(880), CPUFrac: 0.97,
		InputBytes: 256, OutputBytes: 128, FromFunctionBench: true},
	{Name: "CascSHA", Class: CPUBound, Description: "cascading SHA256 hash calculations",
		WorkARM: ms(4150), WorkX86: ms(1500), CPUFrac: 0.97,
		InputBytes: 1024, OutputBytes: 64},
	{Name: "CascMD5", Class: CPUBound, Description: "cascading MD5 hash calculations",
		WorkARM: ms(3400), WorkX86: ms(1260), CPUFrac: 0.97,
		InputBytes: 1024, OutputBytes: 64},
	{Name: "MatMul", Class: CPUBound, Description: "large random matrix multiplication",
		WorkARM: ms(2650), WorkX86: ms(1660), CPUFrac: 0.97,
		InputBytes: 512, OutputBytes: 128, FromFunctionBench: true},
	{Name: "HTMLGen", Class: CPUBound, Description: "dynamically generate and serve HTML",
		WorkARM: ms(920), WorkX86: ms(600), CPUFrac: 0.97,
		InputBytes: 512, OutputBytes: 64 << 10},
	{Name: "AES128", Class: CPUBound, Description: "cascading AES128 encryption/decryption",
		WorkARM: ms(4450), WorkX86: ms(1700), CPUFrac: 0.97,
		InputBytes: 4096, OutputBytes: 128, FromFunctionBench: true},
	{Name: "Decompress", Class: CPUBound, Description: "extract a DEFLATE-compressed string",
		WorkARM: ms(1215), WorkX86: ms(720), CPUFrac: 0.97,
		InputBytes: 256 << 10, OutputBytes: 256, FromFunctionBench: true},
	{Name: "RegExSearch", Class: CPUBound, Description: "find all regular expr. matches in input",
		WorkARM: ms(1650), WorkX86: ms(1050), CPUFrac: 0.97,
		InputBytes: 128 << 10, OutputBytes: 4096},
	{Name: "RegExMatch", Class: CPUBound, Description: "determine if input matches regular expr.",
		WorkARM: ms(730), WorkX86: ms(480), CPUFrac: 0.97,
		InputBytes: 64 << 10, OutputBytes: 64},

	{Name: "RedisInsert", Class: NetworkBound, Description: "insert Redis key-value record",
		Service: ServiceKVStore, WorkARM: ms(120), WorkX86: ms(45), CPUFrac: 0.30,
		InputBytes: 512, OutputBytes: 64, ServiceBytes: 1024, ServiceRTTs: 50},
	{Name: "RedisUpdate", Class: NetworkBound, Description: "update Redis key-value record",
		Service: ServiceKVStore, WorkARM: ms(130), WorkX86: ms(50), CPUFrac: 0.30,
		InputBytes: 512, OutputBytes: 64, ServiceBytes: 1024, ServiceRTTs: 50},
	{Name: "SQLSelect", Class: NetworkBound, Description: "query our PostgreSQL server using SELECT",
		Service: ServiceSQLStore, WorkARM: ms(500), WorkX86: ms(295), CPUFrac: 0.45,
		InputBytes: 256, OutputBytes: 8192, ServiceBytes: 8192, ServiceRTTs: 30},
	{Name: "SQLUpdate", Class: NetworkBound, Description: "query our PostgreSQL server using UPDATE",
		Service: ServiceSQLStore, WorkARM: ms(560), WorkX86: ms(335), CPUFrac: 0.45,
		InputBytes: 256, OutputBytes: 64, ServiceBytes: 1024, ServiceRTTs: 30},
	{Name: "COSGet", Class: NetworkBound, Description: "download from MinIO cloud object store",
		Service: ServiceObjStore, WorkARM: ms(300), WorkX86: ms(150), CPUFrac: 0.25,
		InputBytes: 256, OutputBytes: 256, ServiceBytes: 8 << 20, ServiceRTTs: 8,
		FromFunctionBench: true},
	{Name: "COSPut", Class: NetworkBound, Description: "upload to MinIO cloud object store",
		Service: ServiceObjStore, WorkARM: ms(900), WorkX86: ms(620), CPUFrac: 0.80,
		InputBytes: 512, OutputBytes: 128, ServiceBytes: 256 << 10, ServiceRTTs: 6,
		FromFunctionBench: true},
	{Name: "MQProduce", Class: NetworkBound, Description: "send message to Kafka topic",
		Service: ServiceMQ, WorkARM: ms(140), WorkX86: ms(55), CPUFrac: 0.30,
		InputBytes: 1024, OutputBytes: 64, ServiceBytes: 2048, ServiceRTTs: 55},
	{Name: "MQConsume", Class: NetworkBound, Description: "receive message from Kafka topic",
		Service: ServiceMQ, WorkARM: ms(150), WorkX86: ms(60), CPUFrac: 0.30,
		InputBytes: 256, OutputBytes: 1024, ServiceBytes: 2048, ServiceRTTs: 55},
}

// Functions returns the 17-function Table-I workload suite (a copy: callers
// may mutate freely, e.g. for ablations).
func Functions() []FunctionSpec {
	out := make([]FunctionSpec, len(functions))
	copy(out, functions)
	return out
}

// Cluster-scale constants from Sec IV/V.
const (
	// SBCCount is the MicroFaaS evaluation cluster size.
	SBCCount = 10
	// VMCount is the throughput-matched conventional cluster size.
	VMCount = 6
	// ServerCores is the Opteron 6172's core count.
	ServerCores = 12
)

// Published aggregate results used as calibration targets.
const (
	// PaperSBCThroughput is func/min for the 10-SBC cluster.
	PaperSBCThroughput = 200.6
	// PaperVMThroughput is func/min for the 6-VM cluster.
	PaperVMThroughput = 211.7
	// PaperMicroFaaSJoulesPerFunc is the measured MicroFaaS energy cost.
	PaperMicroFaaSJoulesPerFunc = 5.7
	// PaperConventionalJoulesPerFunc is the 6-VM cluster's energy cost.
	PaperConventionalJoulesPerFunc = 32.0
	// PaperPeakConventionalJoulesPerFunc is the conventional cluster's
	// best efficiency with the server saturated by VMs (Fig 4).
	PaperPeakConventionalJoulesPerFunc = 16.1
	// PaperEnergyEfficiencyGain is the headline 5.6x.
	PaperEnergyEfficiencyGain = 5.6
)

// MeanJobTime is the mean per-invocation runtime (exec + overhead) across
// the 17-function suite.
func MeanJobTime(p Platform, link netsim.Link) time.Duration {
	var sum time.Duration
	for _, f := range functions {
		sum += f.TotalTime(p, link)
	}
	return sum / time.Duration(len(functions))
}

// MeanCycleTime is the mean full job cycle: boot (every MicroFaaS job
// begins on a freshly-booted worker; the throughput-matched conventional
// cluster runs the same run-to-completion worker OS) plus the job itself.
func MeanCycleTime(p Platform, link netsim.Link) time.Duration {
	return bootos.BootTime(p) + MeanJobTime(p, link)
}

// ClusterThroughput is the steady-state functions-per-minute of n
// always-busy workers.
func ClusterThroughput(n int, p Platform, link netsim.Link) float64 {
	cycle := MeanCycleTime(p, link).Seconds()
	return float64(n) * 60 / cycle
}

// MeanCPUPerJob is the mean CPU demand of one full job cycle, including
// the boot's CPU time — the quantity that determines where added VMs
// saturate the rack server's cores.
func MeanCPUPerJob(p Platform) time.Duration {
	var sum time.Duration
	for _, f := range functions {
		sum += f.CPUTime(p)
	}
	mean := sum / time.Duration(len(functions))
	bootCPU := time.Duration(float64(bootos.BootTime(p)) * bootos.BootCPUFraction(p))
	return bootCPU + mean
}

// SaturatedThroughput is the conventional cluster's core-limited ceiling in
// functions per minute (Fig 4's plateau).
func SaturatedThroughput() float64 {
	return float64(ServerCores) / MeanCPUPerJob(X86).Seconds() * 60
}

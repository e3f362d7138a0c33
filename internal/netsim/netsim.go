// Package netsim models the cluster's Ethernet fabric.
//
// The paper's two clusters differ in their last-hop links: each BeagleBone
// has a 10/100 Fast Ethernet NIC, while the rack server bridges its VMs onto
// a shared Gigabit NIC through virtio. The model captures the two effects
// the paper discusses: payload transfer time (bandwidth-bound, the reason
// COSGet is slow on the SBC) and per-round-trip latency (where the VMs'
// bridged virtio path is slower than the SBC's bare-metal PHY).
package netsim

import (
	"fmt"
	"time"
)

// Link describes one worker's path to the top-of-rack switch.
type Link struct {
	// Name identifies the link kind in reports, e.g. "fast-ethernet".
	Name string
	// BandwidthBps is usable bandwidth in bits per second (after framing
	// overhead; we apply Efficiency below to the nominal line rate).
	BandwidthBps float64
	// RTT is the round-trip latency between the worker and a peer on the
	// same switch (OP or backing-service node).
	RTT time.Duration
	// PerRTTOverhead is extra latency added to every application-level
	// round trip by the virtualization stack (virtio + host bridge + softirq
	// scheduling). Zero on bare metal; calibrated for QEMU microVMs.
	PerRTTOverhead time.Duration
}

// Ethernet line-rate efficiency after preamble/IFG/IP+TCP headers for the
// ~1500-byte MTU frames bulk transfers use.
const etherEfficiency = 0.94

// FastEthernet returns the SBC worker link: 100 Mb/s bare-metal.
func FastEthernet() Link {
	return Link{
		Name:         "fast-ethernet",
		BandwidthBps: 100e6 * etherEfficiency,
		RTT:          400 * time.Microsecond,
	}
}

// GigabitEthernet returns a bare-metal gigabit link (the NIC-upgrade
// ablation from Sec V, and the backing-service side of the fabric).
func GigabitEthernet() Link {
	return Link{
		Name:         "gigabit-ethernet",
		BandwidthBps: 1000e6 * etherEfficiency,
		RTT:          250 * time.Microsecond,
	}
}

// BridgedVirtio returns the microVM link: the host's gigabit NIC shared by
// all VMs through a software bridge. Bandwidth is the host NIC's; the
// per-RTT overhead is the calibrated cost of the virtio/bridge/softirq path
// (chatty request/response workloads pay it once per application round
// trip, which is why the paper's small KV and MQ functions run faster on
// MicroFaaS than on the conventional cluster).
func BridgedVirtio() Link {
	return Link{
		Name:           "bridged-virtio",
		BandwidthBps:   1000e6 * etherEfficiency,
		RTT:            250 * time.Microsecond,
		PerRTTOverhead: 2600 * time.Microsecond,
	}
}

// TransferTime returns the time to move n payload bytes one way across the
// link, including one propagation delay (half an RTT).
func (l Link) TransferTime(n int) time.Duration {
	if n < 0 {
		panic(fmt.Sprintf("netsim: negative transfer size %d", n))
	}
	if l.BandwidthBps <= 0 {
		panic(fmt.Sprintf("netsim: link %q has no bandwidth", l.Name))
	}
	serialize := time.Duration(float64(n*8) / l.BandwidthBps * float64(time.Second))
	return serialize + l.RTT/2 + l.PerRTTOverhead/2
}

// RoundTrips returns the latency cost of n application-level round trips
// that carry negligible payload (protocol chatter: TCP handshakes, RESP
// commands, MQ acks).
func (l Link) RoundTrips(n int) time.Duration {
	if n < 0 {
		panic(fmt.Sprintf("netsim: negative round-trip count %d", n))
	}
	return time.Duration(n) * (l.RTT + l.PerRTTOverhead)
}

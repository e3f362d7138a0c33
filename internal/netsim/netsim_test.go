package netsim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTransferTimeScalesWithSize(t *testing.T) {
	l := FastEthernet()
	small := l.TransferTime(1 << 10)
	big := l.TransferTime(16 << 20)
	if big <= small {
		t.Fatal("larger payloads must take longer")
	}
	// 16 MiB over ~94 Mb/s is ≈1.43 s.
	want := 1430 * time.Millisecond
	if big < want-100*time.Millisecond || big > want+100*time.Millisecond {
		t.Fatalf("16 MiB over Fast Ethernet = %v, want ≈%v", big, want)
	}
}

func TestGigabitIsTenTimesFasterForBulk(t *testing.T) {
	n := 64 << 20
	fe := FastEthernet().TransferTime(n)
	ge := GigabitEthernet().TransferTime(n)
	ratio := float64(fe) / float64(ge)
	if ratio < 9 || ratio > 11 {
		t.Fatalf("bulk speedup = %.2fx, want ≈10x", ratio)
	}
}

func TestVirtioPenaltyHitsChatterNotBandwidth(t *testing.T) {
	ge, vio := GigabitEthernet(), BridgedVirtio()
	// Same payload rate...
	if ge.BandwidthBps != vio.BandwidthBps {
		t.Fatal("bridged virtio should share the host gigabit NIC bandwidth")
	}
	// ...but much slower per round trip.
	if vio.RoundTrips(10) <= ge.RoundTrips(10)*2 {
		t.Fatalf("virtio RTT cost %v should far exceed bare-metal %v",
			vio.RoundTrips(10), ge.RoundTrips(10))
	}
}

func TestZeroBytesStillPaysLatency(t *testing.T) {
	l := FastEthernet()
	if l.TransferTime(0) <= 0 {
		t.Fatal("a zero-byte message still pays propagation latency")
	}
}

func TestRoundTripsZero(t *testing.T) {
	if FastEthernet().RoundTrips(0) != 0 {
		t.Fatal("zero round trips must cost nothing")
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	FastEthernet().TransferTime(-1)
}

func TestNegativeRTTsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	FastEthernet().RoundTrips(-1)
}

func TestZeroBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Link{Name: "broken"}.TransferTime(1)
}

// Property: transfer time is monotone in payload size on every link.
func TestTransferMonotoneProperty(t *testing.T) {
	links := []Link{FastEthernet(), GigabitEthernet(), BridgedVirtio()}
	prop := func(a, b uint32) bool {
		x, y := int(a%(64<<20)), int(b%(64<<20))
		if x > y {
			x, y = y, x
		}
		for _, l := range links {
			if l.TransferTime(x) > l.TransferTime(y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: round-trip cost is linear in the count.
func TestRoundTripLinearityProperty(t *testing.T) {
	prop := func(n uint8) bool {
		l := BridgedVirtio()
		return l.RoundTrips(int(n)) == time.Duration(n)*l.RoundTrips(1)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

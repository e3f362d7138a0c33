package trace

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramShapeValidation(t *testing.T) {
	for _, bad := range [][3]any{
		{time.Duration(0), time.Second, 5},
		{time.Second, time.Second, 5},
		{time.Millisecond, time.Second, 0},
	} {
		if _, err := NewHistogram(bad[0].(time.Duration), bad[1].(time.Duration), bad[2].(int)); err == nil {
			t.Fatalf("accepted shape %v", bad)
		}
	}
}

func TestHistogramBucketsAndOverflow(t *testing.T) {
	h, err := NewHistogram(time.Millisecond, time.Second, 4)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(500 * time.Microsecond) // below lo → first bucket
	h.Observe(time.Millisecond)       // exactly lo → first bucket
	h.Observe(900 * time.Millisecond) // last bounded bucket
	h.Observe(2 * time.Second)        // overflow
	if h.total != 4 {
		t.Fatalf("total = %d", h.total)
	}
	if h.counts[0] != 2 {
		t.Fatalf("first bucket = %d, want 2", h.counts[0])
	}
	if h.counts[len(h.counts)-1] != 1 {
		t.Fatalf("overflow = %d, want 1", h.counts[len(h.counts)-1])
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h, err := NewHistogram(time.Millisecond, time.Second, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		h.Observe(10 * time.Millisecond)
	}
	h.Observe(5 * time.Second) // one outlier in overflow
	p50 := h.Quantile(0.5)
	if p50 > 50*time.Millisecond {
		t.Fatalf("P50 = %v, want near 10ms bucket edge", p50)
	}
	p100 := h.Quantile(1)
	if p100 != 5*time.Second {
		t.Fatalf("P100 = %v, want the observed max", p100)
	}
	if (&Histogram{}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestHistogramQuantilePanicsOutOfRange(t *testing.T) {
	h, _ := NewHistogram(time.Millisecond, time.Second, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	h.Quantile(1.5)
}

func TestHistogramWrite(t *testing.T) {
	h, _ := NewHistogram(time.Millisecond, 100*time.Millisecond, 4)
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond)
	}
	h.Observe(time.Minute)
	var sb strings.Builder
	if err := h.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "█") || !strings.Contains(out, "overflow") {
		t.Fatalf("render:\n%s", out)
	}
	empty, _ := NewHistogram(time.Millisecond, time.Second, 3)
	sb.Reset()
	empty.Write(&sb) //nolint:errcheck
	if !strings.Contains(sb.String(), "no samples") {
		t.Fatal("empty histogram render wrong")
	}
}

func TestCollectorLatencyHistogram(t *testing.T) {
	c := NewCollector()
	for i := 1; i <= 5; i++ {
		c.Add(Record{Function: "A", Submitted: 0, Finished: time.Duration(i) * 10 * time.Millisecond})
	}
	c.Add(Record{Function: "A", Err: "x", Finished: time.Hour}) // excluded
	h, err := c.LatencyHistogram(time.Millisecond, time.Second, 8)
	if err != nil {
		t.Fatal(err)
	}
	if h.total != 5 {
		t.Fatalf("histogram saw %d samples, want 5 (errors excluded)", h.total)
	}
}

// Property: the bucket-edge quantile never undershoots the true quantile.
func TestHistogramQuantileUpperBoundProperty(t *testing.T) {
	prop := func(samplesMs []uint16, qRaw uint8) bool {
		if len(samplesMs) == 0 {
			return true
		}
		h, err := NewHistogram(time.Millisecond, time.Minute, 24)
		if err != nil {
			return false
		}
		ds := make([]time.Duration, len(samplesMs))
		for i, ms := range samplesMs {
			ds[i] = time.Duration(ms) * time.Millisecond
			h.Observe(ds[i])
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		q := float64(qRaw%101) / 100
		rank := int(float64(len(ds)-1) * q)
		trueQ := ds[rank]
		return h.Quantile(q) >= trueQ ||
			// overflow-bucket samples report the max, which is exact
			h.Quantile(q) == h.max
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

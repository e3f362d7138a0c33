package trace

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Histogram buckets durations into logarithmic bins for latency
// distribution reports (the paper's motivation section leans on FaaS
// latency variability; the live CLI renders one of these per run).
type Histogram struct {
	// bounds[i] is the inclusive upper edge of bucket i; the last bucket
	// is unbounded.
	bounds []time.Duration
	counts []int
	total  int
	min    time.Duration
	max    time.Duration
}

// NewHistogram builds a histogram with log-spaced bucket edges from lo to
// hi (e.g. 1ms to 1m), with the given number of buckets plus an overflow.
func NewHistogram(lo, hi time.Duration, buckets int) (*Histogram, error) {
	if lo <= 0 || hi <= lo || buckets < 1 {
		return nil, fmt.Errorf("trace: bad histogram shape lo=%v hi=%v buckets=%d", lo, hi, buckets)
	}
	h := &Histogram{
		bounds: make([]time.Duration, buckets),
		counts: make([]int, buckets+1),
		min:    time.Duration(math.MaxInt64),
	}
	ratio := math.Pow(float64(hi)/float64(lo), 1/float64(buckets-1))
	edge := float64(lo)
	for i := 0; i < buckets; i++ {
		h.bounds[i] = time.Duration(edge)
		edge *= ratio
	}
	h.bounds[buckets-1] = hi // kill accumulation error on the last edge
	return h, nil
}

// Observe adds one sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.total++
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	for i, b := range h.bounds {
		if d <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.counts)-1]++
}

// Quantile returns an upper bound on the q-th quantile (the edge of the
// bucket containing it); q in [0,1].
func (h *Histogram) Quantile(q float64) time.Duration {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("trace: quantile %v outside [0,1]", q))
	}
	if h.total == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	seen := 0
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max // overflow bucket: report the observed max
		}
	}
	return h.max
}

// Write renders the histogram as rows of "≤edge count bar". Empty leading
// and trailing buckets are elided.
func (h *Histogram) Write(w io.Writer) error {
	if h.total == 0 {
		_, err := fmt.Fprintln(w, "(no samples)")
		return err
	}
	first, last := 0, len(h.counts)-1
	for first < len(h.counts) && h.counts[first] == 0 {
		first++
	}
	for last >= 0 && h.counts[last] == 0 {
		last--
	}
	maxCount := 0
	for _, c := range h.counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i := first; i <= last; i++ {
		label := "overflow"
		if i < len(h.bounds) {
			label = "≤" + h.bounds[i].Round(time.Microsecond).String()
		}
		bar := strings.Repeat("█", h.counts[i]*40/maxCount)
		if h.counts[i] > 0 && bar == "" {
			bar = "▏"
		}
		if _, err := fmt.Fprintf(w, "%12s %6d %s\n", label, h.counts[i], bar); err != nil {
			return err
		}
	}
	return nil
}

// LatencyHistogram builds and fills a histogram from the collector's
// successful invocations' end-to-end latencies.
func (c *Collector) LatencyHistogram(lo, hi time.Duration, buckets int) (*Histogram, error) {
	h, err := NewHistogram(lo, hi, buckets)
	if err != nil {
		return nil, err
	}
	c.each(func(r Record) {
		if r.Err == "" {
			h.Observe(r.Latency())
		}
	})
	return h, nil
}

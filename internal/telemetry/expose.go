package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// TextContentType is the Content-Type of the Prometheus text exposition
// format this package writes.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (# HELP, # TYPE, then one sample line per child;
// histograms expand to _bucket/_sum/_count). Families are sorted by name
// and children by creation order, so output is stable between scrapes.
// A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.WritePrometheusLabeled(w, "", "")
}

// WritePrometheusLabeled is WritePrometheus with one extra label pair
// injected into every sample line (before any le bucket label). A
// sharded gateway uses it to merge per-shard registries into one
// exposition — each shard's samples carry shard="N", so same-named
// series from different shards stay distinct and aggregate with Sum.
// Empty labelName injects nothing.
func (r *Registry) WritePrometheusLabeled(w io.Writer, labelName, labelValue string) error {
	if r == nil {
		return nil
	}
	// bufio's sticky error lets the walk run to its end after a failed
	// write; Flush reports the first one.
	bw := bufio.NewWriter(w)
	var last *family
	r.Walk(func(_ int, value float64, ref SeriesRef) {
		f := ref.f
		if f != last {
			last = f
			if f.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		}
		names, values := ref.labelPairs()
		bound, bucket := ref.le()
		suffix := ref.suffix()
		bw.WriteString(f.name)
		bw.WriteString(suffix)
		bw.WriteString(labelString(names, values, labelName, labelValue, bucket, bound))
		bw.WriteByte(' ')
		if bucket || suffix == "_count" {
			// Observation counts print as integers, not %g floats (the
			// round trip through float64 is exact below 2^53).
			bw.WriteString(strconv.FormatUint(uint64(value), 10))
		} else {
			bw.WriteString(formatValue(value))
		}
		bw.WriteByte('\n')
	})
	return bw.Flush()
}

// labelString renders {k="v",...}, optionally injecting one extra label
// pair and, for a bucket series, appending le="bound"; it returns ""
// when there are no labels at all.
func labelString(names, values []string, extraName, extraValue string, bucket bool, bound float64) string {
	if len(names) == 0 && extraName == "" && !bucket {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(names[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	if bucket {
		if len(names) > 0 || extraName != "" {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(formatValue(bound))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value the way Prometheus expects: shortest
// round-trip float, with +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// escapeLabel escapes a label value per the text format: backslash,
// double-quote, and newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// escapeHelp escapes a help string: backslash and newline only.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

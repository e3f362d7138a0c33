package telemetry

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// MaxLineBytes is the per-line limit ParseText accepts. Exposition lines
// are one sample each, so even pathological label cardinality fits far
// below it; anything longer is reported as a LineTooLongError instead of
// silently failing the whole document.
const MaxLineBytes = 1024 * 1024

// LineTooLongError reports an exposition line exceeding MaxLineBytes.
// ParseText returns it together with every sample parsed before the
// oversized line, so a scrape with one high-cardinality outlier degrades
// to a partial view instead of nothing. Match with errors.As.
type LineTooLongError struct {
	// Line is the 1-based number of the line where parsing stopped.
	Line int
	// Limit is the per-line byte limit that was exceeded.
	Limit int
}

// Error implements the error interface.
func (e *LineTooLongError) Error() string {
	return fmt.Sprintf("telemetry: line %d exceeds the %d-byte line limit (parse stopped there; earlier samples are valid)", e.Line, e.Limit)
}

// Sample is one parsed exposition line: a metric name, its label set, and
// the sample value. Histogram series appear under their expanded names
// (name_bucket with an "le" label, name_sum, name_count).
type Sample struct {
	// Name is the metric name (histogram series use expanded names).
	Name string
	// Labels is the sample's label set (nil when unlabelled).
	Labels map[string]string
	// Value is the sample value.
	Value float64
}

// Samples is a scrape result with lookup helpers.
type Samples []Sample

// ParseText parses the Prometheus text exposition format (the subset this
// package writes: # comments, name{labels} value lines, +Inf/NaN values).
// It is the client half of WritePrometheus, used by faasctl top and by
// tests cross-checking /metrics against trace-derived numbers.
//
// A line longer than MaxLineBytes stops the parse there: ParseText
// returns the samples parsed so far together with a *LineTooLongError
// carrying the offending line's position, so one high-cardinality
// outlier line degrades the scrape instead of erasing it.
func ParseText(r io.Reader) (Samples, error) {
	var out Samples
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// The scanner stopped at the line after the last one it
			// delivered; hand back what parsed cleanly.
			return out, &LineTooLongError{Line: lineNo + 1, Limit: MaxLineBytes}
		}
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return out, nil
}

func parseLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ \t"); i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end, err := parseLabels(rest[1:], s.Labels)
		if err != nil {
			return s, err
		}
		rest = rest[1+end:]
	}
	rest = strings.TrimSpace(rest)
	// A trailing timestamp (which we never write) would be a second field.
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, err
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes `k="v",...}` from in, filling labels, and returns
// the index just past the closing brace.
func parseLabels(in string, labels map[string]string) (int, error) {
	i := 0
	for {
		for i < len(in) && (in[i] == ',' || in[i] == ' ') {
			i++
		}
		if i < len(in) && in[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(in[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("unterminated label set")
		}
		name := strings.TrimSpace(in[i : i+eq])
		i += eq + 1
		if i >= len(in) || in[i] != '"' {
			return 0, fmt.Errorf("label %s: missing opening quote", name)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(in) {
				return 0, fmt.Errorf("label %s: unterminated value", name)
			}
			c := in[i]
			if c == '\\' && i+1 < len(in) {
				switch in[i+1] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(in[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		labels[name] = b.String()
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Value returns the single sample matching name and every given label
// pair, and whether one was found.
func (ss Samples) Value(name string, kv ...string) (float64, bool) {
	for _, s := range ss {
		if s.Name == name && matchLabels(s.Labels, kv) {
			return s.Value, true
		}
	}
	return 0, false
}

// Sum adds every sample matching name and the given label pairs (use it
// to aggregate a family across its remaining labels).
func (ss Samples) Sum(name string, kv ...string) float64 {
	var sum float64
	for _, s := range ss {
		if s.Name == name && matchLabels(s.Labels, kv) {
			sum += s.Value
		}
	}
	return sum
}

// LabelValues returns the sorted distinct values of one label across all
// samples of a family.
func (ss Samples) LabelValues(name, label string) []string {
	seen := map[string]bool{}
	for _, s := range ss {
		if s.Name == name {
			if v, ok := s.Labels[label]; ok && !seen[v] {
				seen[v] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// HistogramQuantile resolves quantile q from a family's parsed _bucket
// samples (matching the given non-le label pairs), using the same
// upper-bound convention as QuantileFromCumulative. Samples sharing an le
// bound are summed first, so the quantile works over a merged
// exposition (e.g. a sharded gateway's /metrics, where every shard
// contributes the same bucket grid under its own shard label).
func (ss Samples) HistogramQuantile(name string, q float64, kv ...string) float64 {
	byLE := map[float64]uint64{}
	for _, s := range ss {
		if s.Name != name+"_bucket" || !matchLabels(s.Labels, kv) {
			continue
		}
		le, err := parseValue(s.Labels["le"])
		if err != nil {
			continue
		}
		byLE[le] += uint64(s.Value)
	}
	if len(byLE) == 0 {
		return 0
	}
	les := make([]float64, 0, len(byLE))
	for le := range byLE {
		les = append(les, le)
	}
	sort.Float64s(les)
	bounds := make([]float64, 0, len(les))
	counts := make([]uint64, 0, len(les))
	for _, le := range les {
		if !math.IsInf(le, 1) {
			bounds = append(bounds, le)
		}
		counts = append(counts, byLE[le])
	}
	total := counts[len(counts)-1]
	if len(bounds) == 0 || total == 0 {
		return 0
	}
	return QuantileFromCumulative(bounds, counts, total, q)
}

func matchLabels(have map[string]string, kv []string) bool {
	for i := 0; i+1 < len(kv); i += 2 {
		if have[kv[i]] != kv[i+1] {
			return false
		}
	}
	return true
}

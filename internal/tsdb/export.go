package tsdb

import (
	"bufio"
	"io"
	"sort"
	"time"
)

// WriteNDJSON streams retained series as newline-delimited JSON for
// offline analysis: one object per sample, shaped
//
//	{"metric":"…","labels":{…},"at_ms":…,"value":…}
//
// metric filters to one family ("" = everything); match filters series
// by label pairs; window bounds the lookback from the last scrape
// (<= 0 = all retained points). Metrics stream in first-seen order,
// series within a metric likewise, points oldest first — fully
// deterministic under a seed. A worker=w pair in match asks for w's own
// series, as Query does.
func (s *Store) WriteNDJSON(w io.Writer, metric string, match map[string]string, window time.Duration) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.askMatchLocked(match)
	from := time.Duration(0)
	if window > 0 {
		if from = s.clk.last() - window; from < 0 {
			from = 0
		}
	}
	bw := bufio.NewWriter(w)
	var line []byte // one buffer for every line of the export
	names := s.names
	if metric != "" {
		names = []string{metric}
	}
	for _, name := range names {
		ms, ok := s.metrics[name]
		if !ok {
			continue
		}
		for _, sr := range ms.order {
			if !matchesAll(sr.labels, match) {
				continue
			}
			var err error
			if line, err = writeSeriesNDJSON(bw, line, name, sr, from); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// writeSeriesNDJSON streams one series' windowed points, building each
// line in line (returned for the next series to reuse): the series'
// prefix once, then per point only the two numbers after it.
func writeSeriesNDJSON(w *bufio.Writer, line []byte, name string, sr *series, from time.Duration) ([]byte, error) {
	line = append(line[:0], `{"metric":`+jsonString(name)+`,"labels":{`+jsonLabels(sr.labels)+`},"at_ms":`...)
	prefix := len(line)
	var err error
	sr.ascend(from, func(p Point) bool {
		line = appendJSONFloat(line[:prefix], float64(p.At)/float64(time.Millisecond))
		line = append(line, `,"value":`...)
		line = appendJSONFloat(line, p.Value)
		line = append(line, "}\n"...)
		_, err = w.Write(line)
		return err == nil
	})
	return line, err
}

// jsonLabels renders a label map as sorted JSON members (no braces).
func jsonLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += ","
		}
		out += jsonString(k) + ":" + jsonString(labels[k])
	}
	return out
}

// jsonString quotes s as a JSON string, escaping the characters the
// exposition format can carry (quotes, backslashes, newlines); metric
// and label names are already validated to need none of it.
func jsonString(s string) string {
	out := make([]byte, 0, len(s)+2)
	out = append(out, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			out = append(out, '\\', c)
		case '\n':
			out = append(out, '\\', 'n')
		default:
			if c < 0x20 {
				const hex = "0123456789abcdef"
				out = append(out, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			} else {
				out = append(out, c)
			}
		}
	}
	return string(append(out, '"'))
}

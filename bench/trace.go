package main

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// the system under test. Spans of one request share Req (the job id);
// Parent is the index+1 of the span that caused this one within its
// recorder, 0 for a root.
type span struct {
	Name       string
	Track      int // one per recorder: a client, or the scraper
	Req        int64
	Parent     int
	Start, End time.Duration // offsets from the traced trial's epoch
}

// spanRecorder collects spans in memory for one goroutine; nothing is
// written until the benchmark ends. A nil recorder records nothing.
type spanRecorder struct {
	track int
	epoch time.Time
	spans []span
}

func newSpanRecorder(track int, epoch time.Time, capacity int) *spanRecorder {
	return &spanRecorder{track: track, epoch: epoch, spans: make([]span, 0, capacity)}
}

// add records one span and returns its index+1, for use as a Parent.
func (r *spanRecorder) add(name string, req int64, parent int, start, end time.Duration) int {
	r.spans = append(r.spans, span{Name: name, Track: r.track, Req: req, Parent: parent, Start: start, End: end})
	return len(r.spans)
}

// request records a client round trip with the two intervals the reply
// reports as its children: the orchestrator's submit→settle latency and,
// inside that, the worker's cycle. The reply carries durations, not
// timestamps, so each child is centred in its parent.
func (r *spanRecorder) request(req int64, sent time.Time, roundTrip, coreLatency, nodeCycle time.Duration) {
	start := sent.Sub(r.epoch)
	root := r.add("client.roundtrip", req, 0, start, start+roundTrip)
	coreLatency = clampDur(coreLatency, roundTrip)
	nodeCycle = clampDur(nodeCycle, coreLatency)
	coreStart := start + (roundTrip-coreLatency)/2
	core := r.add("core.submit_to_settle", req, root, coreStart, coreStart+coreLatency)
	nodeStart := coreStart + (coreLatency-nodeCycle)/2
	r.add("node.cycle", req, core, nodeStart, nodeStart+nodeCycle)
}

func clampDur(d, max time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	if d > max {
		return max
	}
	return d
}

// selfTimes splits recorded request spans into per-layer self times: a
// span's duration minus what its child covers. The node's cycle has no
// child, so its self time is its duration.
func selfTimes(recs []*spanRecorder) (gateway, core, node []time.Duration) {
	for _, r := range recs {
		for i, s := range r.spans {
			switch s.Name {
			case "client.roundtrip":
				gateway = append(gateway, (s.End-s.Start)-childDur(r.spans, i))
			case "core.submit_to_settle":
				core = append(core, (s.End-s.Start)-childDur(r.spans, i))
			case "node.cycle":
				node = append(node, s.End-s.Start)
			}
		}
	}
	return gateway, core, node
}

// childDur is the duration of span i's direct child. request() appends a
// parent's child right after it, so only the next span can qualify.
func childDur(spans []span, i int) time.Duration {
	if i+1 < len(spans) && spans[i+1].Parent == i+1 {
		return spans[i+1].End - spans[i+1].Start
	}
	return 0
}

// medianDurUS sorts ds and returns its median in microseconds (0 when
// empty).
func medianDurUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	v, _ := percentile(ds, 50)
	return us(v)
}

// chromeEvent is one trace_event "complete" event; ts and dur are µs.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChromeTrace writes every recorded span as one Chrome trace_event
// file (chrome://tracing, Perfetto): one process, one track per recorder.
func writeChromeTrace(w io.Writer, workload string, recorders []*spanRecorder) error {
	events := []chromeEvent{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]string{"name": workload}}}
	for _, r := range recorders {
		for _, s := range r.spans {
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start), PID: 1, TID: s.Track,
				Args: map[string]string{"req": strconv.FormatInt(s.Req, 10), "parent": strconv.Itoa(s.Parent)},
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

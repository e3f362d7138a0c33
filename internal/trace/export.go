package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// WriteNDJSON writes one Span per line (root first, then its phases in
// order), newline-delimited — the grep/jq-friendly dump format.
func WriteNDJSON(w io.Writer, traces []Trace) error {
	enc := json.NewEncoder(w)
	for _, tr := range traces {
		if err := enc.Encode(tr.Root); err != nil {
			return err
		}
		for _, s := range tr.Spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// chromeEvent is one entry in the Chrome trace_event JSON array. Field
// order follows the trace_event spec's examples; ts/dur are microseconds.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`
	Dur   *float64          `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// chromeTrace is the trace_event "JSON Object Format" container.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// micros converts a cluster-clock offset to trace_event microseconds.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteChromeTrace writes the traces in Chrome trace_event JSON object
// format, loadable in Perfetto or chrome://tracing. Each trace's root
// span and its orchestrator-side phases (queue, retry, settle, fault)
// render on the "orchestrator" track (tid 0); worker-side phases (boot,
// exec) render on a per-worker track. All events are complete events
// ("ph":"X") with microsecond timestamps, preceded by metadata events
// naming the process and threads. Output is deterministic for a given
// input: tracks are assigned in sorted worker-id order and args maps
// serialize in sorted key order (encoding/json sorts map keys).
func WriteChromeTrace(w io.Writer, traces []Trace) error {
	// Assign tids: 0 = orchestrator, then sorted worker ids.
	workers := map[string]int{}
	var ids []string
	for _, tr := range traces {
		for _, s := range tr.Spans {
			if s.Worker != "" && workerPhase(s.Phase) {
				if _, ok := workers[s.Worker]; !ok {
					workers[s.Worker] = 0
					ids = append(ids, s.Worker)
				}
			}
		}
	}
	sort.Strings(ids)
	for i, id := range ids {
		workers[id] = i + 1
	}

	events := make([]chromeEvent, 0, 2+len(ids))
	events = append(events,
		chromeEvent{Name: "process_name", Phase: "M", PID: 1, TID: 0,
			Args: map[string]string{"name": "microfaas"}},
		chromeEvent{Name: "thread_name", Phase: "M", PID: 1, TID: 0,
			Args: map[string]string{"name": "orchestrator"}},
	)
	for _, id := range ids {
		events = append(events, chromeEvent{Name: "thread_name", Phase: "M",
			PID: 1, TID: workers[id], Args: map[string]string{"name": id}})
	}

	for _, tr := range traces {
		events = append(events, completeEvent(tr.Root, 0))
		for _, s := range tr.Spans {
			tid := 0
			if s.Worker != "" && workerPhase(s.Phase) {
				tid = workers[s.Worker]
			}
			events = append(events, completeEvent(s, tid))
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// workerPhase reports whether the phase executes on a worker node (and so
// renders on the worker's track rather than the orchestrator's).
func workerPhase(p Phase) bool { return p == PhaseBoot || p == PhaseExec }

// completeEvent renders one span as a trace_event complete event.
func completeEvent(s Span, tid int) chromeEvent {
	name := string(s.Phase)
	if s.Phase == PhaseInvocation {
		name = fmt.Sprintf("%s #%d", s.Function, s.Job)
	}
	args := map[string]string{
		"job":     strconv.FormatInt(s.Job, 10),
		"attempt": strconv.Itoa(s.Attempt),
	}
	if s.Function != "" {
		args["function"] = s.Function
	}
	if s.Worker != "" {
		args["worker"] = s.Worker
	}
	if s.EnergyJ != 0 {
		args["energy_j"] = fmt.Sprintf("%.6f", s.EnergyJ)
	}
	if s.Detail != "" {
		args["detail"] = s.Detail
	}
	if s.Err != "" {
		args["err"] = s.Err
	}
	dur := micros(s.End - s.Start)
	return chromeEvent{
		Name:  name,
		Cat:   string(s.Phase),
		Phase: "X",
		TS:    micros(s.Start),
		Dur:   &dur,
		PID:   1,
		TID:   tid,
		Args:  args,
	}
}

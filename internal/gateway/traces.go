package gateway

import (
	"net/http"
	"net/http/pprof"
	"strconv"

	"microfaas/internal/tracing"
)

// PhaseBreakdown is one lifecycle phase's share of a trace, in the
// gateway's wire units (fractional milliseconds).
type PhaseBreakdown struct {
	Phase      string  `json:"phase"`
	DurationMs float64 `json:"duration_ms"`
	EnergyJ    float64 `json:"energy_j"`
	Count      int     `json:"count"`
}

// TraceSummary is a trace's critical-path breakdown: phase latencies sum
// (with UnattributedMs) to LatencyMs, and phase joules sum to EnergyJ.
type TraceSummary struct {
	Trace          string           `json:"trace"`
	Job            int64            `json:"job"`
	Function       string           `json:"function"`
	Worker         string           `json:"worker,omitempty"`
	Attempts       int              `json:"attempts"`
	Error          string           `json:"error,omitempty"`
	StartMs        float64          `json:"start_ms"`
	LatencyMs      float64          `json:"latency_ms"`
	UnattributedMs float64          `json:"unattributed_ms"`
	EnergyJ        float64          `json:"energy_j"`
	Phases         []PhaseBreakdown `json:"phases"`
}

// SpanInfo is one raw span in a GET /traces/{id} reply.
type SpanInfo struct {
	ID         string  `json:"id"`
	Parent     string  `json:"parent,omitempty"`
	Phase      string  `json:"phase"`
	Worker     string  `json:"worker,omitempty"`
	Attempt    int     `json:"attempt"`
	StartMs    float64 `json:"start_ms"`
	DurationMs float64 `json:"duration_ms"`
	EnergyJ    float64 `json:"energy_j"`
	Detail     string  `json:"detail,omitempty"`
	Error      string  `json:"err,omitempty"`
}

// TracesResponse is the GET /traces reply.
type TracesResponse struct {
	Traces []TraceSummary `json:"traces"`
	Stats  tracing.Stats  `json:"stats"`
}

// TraceResponse is the GET /traces/{id} reply.
type TraceResponse struct {
	TraceSummary
	Spans []SpanInfo `json:"spans"`
}

// makeSummary converts an analyzer summary to wire units.
func makeSummary(sum tracing.Summary) TraceSummary {
	out := TraceSummary{
		Trace:          sum.Trace.String(),
		Job:            sum.Job,
		Function:       sum.Function,
		Worker:         sum.Worker,
		Attempts:       sum.Attempts,
		Error:          sum.Err,
		StartMs:        ms(sum.Start),
		LatencyMs:      ms(sum.Latency),
		UnattributedMs: ms(sum.Unattributed),
		EnergyJ:        sum.EnergyJ,
		Phases:         make([]PhaseBreakdown, 0, len(sum.Phases)),
	}
	for _, p := range sum.Phases {
		out.Phases = append(out.Phases, PhaseBreakdown{
			Phase:      string(p.Phase),
			DurationMs: ms(p.Duration),
			EnergyJ:    p.EnergyJ,
			Count:      p.Count,
		})
	}
	return out
}

// handleTraces serves GET /traces: committed-trace summaries, newest
// last. ?job=N returns the trace for one job; ?slowest=N the N slowest by
// end-to-end latency; ?limit=N caps the default listing (100). With
// ?format=chrome or ?format=ndjson the selection is streamed as a raw
// export (Chrome trace_event JSON / newline-delimited spans) instead.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	var traces []tracing.Trace
	q := r.URL.Query()
	switch {
	case q.Get("job") != "":
		job, err := strconv.ParseInt(q.Get("job"), 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad job: "+q.Get("job"))
			return
		}
		if tr, ok := s.tracer.ByJob(job); ok {
			traces = []tracing.Trace{tr}
		}
	case q.Get("slowest") != "":
		n, err := strconv.Atoi(q.Get("slowest"))
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad slowest: "+q.Get("slowest"))
			return
		}
		traces = s.tracer.Slowest(n)
	default:
		limit := 100
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				writeError(w, http.StatusBadRequest, "bad limit: "+v)
				return
			}
			limit = n
		}
		traces = s.tracer.Traces()
		if len(traces) > limit {
			traces = traces[len(traces)-limit:] // newest, in stored order
		}
	}
	switch q.Get("format") {
	case "":
		out := TracesResponse{Traces: make([]TraceSummary, 0, len(traces)), Stats: s.tracer.Stats()}
		for _, sum := range tracing.SummarizeAll(traces) {
			out.Traces = append(out.Traces, makeSummary(sum))
		}
		writeJSON(w, http.StatusOK, out)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		tracing.WriteChromeTrace(w, traces) //nolint:errcheck // peer gone: nothing to do
	case "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
		tracing.WriteNDJSON(w, traces) //nolint:errcheck // peer gone: nothing to do
	default:
		writeError(w, http.StatusBadRequest, "bad format: "+q.Get("format"))
	}
}

// handleTraceByID serves GET /traces/{id}: the trace's critical-path
// breakdown plus its raw spans. The id is the 16-hex-digit trace id.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	idStr := r.PathValue("id")
	id, err := tracing.ParseTraceID(idStr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad trace id: "+idStr)
		return
	}
	tr, ok := s.tracer.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown or unsampled trace "+idStr)
		return
	}
	resp := TraceResponse{TraceSummary: makeSummary(tracing.Summarize(tr)), Spans: make([]SpanInfo, 0, len(tr.Spans)+1)}
	all := append([]tracing.Span{tr.Root}, tr.Spans...)
	for _, sp := range all {
		parent := ""
		if sp.Parent != 0 {
			parent = sp.Parent.String()
		}
		resp.Spans = append(resp.Spans, SpanInfo{
			ID:         sp.ID.String(),
			Parent:     parent,
			Phase:      string(sp.Phase),
			Worker:     sp.Worker,
			Attempt:    sp.Attempt,
			StartMs:    ms(sp.Start),
			DurationMs: ms(sp.End - sp.Start),
			EnergyJ:    sp.EnergyJ,
			Detail:     sp.Detail,
			Error:      sp.Err,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// mountPprof wires the net/http/pprof handlers onto the gateway mux —
// the explicit registrations, not DefaultServeMux, so nothing leaks onto
// the profiler-free default mux and nothing else on it leaks in.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

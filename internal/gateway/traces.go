package gateway

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"microfaas/internal/trace"
)

// PhaseBreakdown is one lifecycle phase's share of a trace, in the
// gateway's wire units (fractional milliseconds).
type PhaseBreakdown struct {
	Phase      string  `json:"phase"`
	DurationMs float64 `json:"duration_ms"`
	EnergyJ    float64 `json:"energy_j"`
	Count      int     `json:"count"`
}

// TraceSummary is a job's critical-path breakdown: phase latencies sum
// (with UnattributedMs) to LatencyMs, and phase joules sum to EnergyJ. A
// trace's id is its job id.
type TraceSummary struct {
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

// SpanInfo is one phase in a GET /traces/{id} reply.
type SpanInfo struct {
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
}

// TraceResponse is the GET /traces/{id} reply.
type TraceResponse struct {
	TraceSummary
	Spans []SpanInfo `json:"spans"`
}

// makeSummary converts a trace's breakdown to wire units.
func makeSummary(tr trace.Trace) TraceSummary {
	b := tr.Breakdown()
	out := TraceSummary{
		Job:            b.Job,
		Function:       b.Function,
		Worker:         b.Worker,
		Attempts:       b.Attempts,
		Error:          b.Err,
		StartMs:        ms(b.Start),
		LatencyMs:      ms(b.Latency),
		UnattributedMs: ms(b.Unattributed),
		EnergyJ:        b.EnergyJ,
		Phases:         make([]PhaseBreakdown, 0, len(b.Phases)),
	}
	for _, p := range b.Phases {
		out.Phases = append(out.Phases, PhaseBreakdown{
			Phase:      string(p.Phase),
			DurationMs: ms(p.Duration),
			EnergyJ:    p.EnergyJ,
			Count:      p.Count,
		})
	}
	return out
}

// collectors is every shard's record window, in shard order: what the
// trace routes render from.
func (s *Server) collectors() []*trace.Collector {
	out := make([]*trace.Collector, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.orch.Collector()
	}
	return out
}

// handleTraces serves GET /traces: the breakdowns of the jobs in the
// record window, newest last. ?slowest=N returns the N slowest by
// end-to-end latency; ?limit=N caps the default listing (100). With
// ?format=chrome or ?format=ndjson the selection is streamed as a raw
// export (Chrome trace_event JSON / newline-delimited spans) instead.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	traces := trace.Traces(s.collectors()...)
	if v := q.Get("slowest"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad slowest: "+v)
			return
		}
		traces = trace.Slowest(traces, n)
	} else {
		limit := 100
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				writeError(w, http.StatusBadRequest, "bad limit: "+v)
				return
			}
			limit = n
		}
		if len(traces) > limit {
			traces = traces[len(traces)-limit:] // newest, in settle order
		}
	}
	switch q.Get("format") {
	case "":
		out := TracesResponse{Traces: make([]TraceSummary, 0, len(traces))}
		for _, tr := range traces {
			out.Traces = append(out.Traces, makeSummary(tr))
		}
		writeJSON(w, http.StatusOK, out)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		trace.WriteChromeTrace(w, traces) //nolint:errcheck // peer gone: nothing to do
	case "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
		trace.WriteNDJSON(w, traces) //nolint:errcheck // peer gone: nothing to do
	default:
		writeError(w, http.StatusBadRequest, "bad format: "+q.Get("format"))
	}
}

// handleTraceByID serves GET /traces/{id}: one job's critical-path
// breakdown plus its phases. The id is the job id.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	idStr := r.PathValue("id")
	job, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil || job <= 0 {
		writeError(w, http.StatusBadRequest, "bad job id: "+idStr)
		return
	}
	tr, ok := trace.TraceOf(job, s.collectors()...)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("job %d is not in the record window: it never ran, or has left it", job))
		return
	}
	resp := TraceResponse{TraceSummary: makeSummary(tr), Spans: make([]SpanInfo, 0, len(tr.Spans))}
	for _, sp := range tr.Spans {
		resp.Spans = append(resp.Spans, SpanInfo{
			Phase:      string(sp.Phase),
			Worker:     sp.Worker,
			Attempt:    sp.Attempt,
			StartMs:    ms(sp.Start),
			DurationMs: ms(sp.Duration()),
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

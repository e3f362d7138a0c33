package gateway

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"microfaas/internal/tsdb"
)

// QueryResponse is the GET /query reply: the evaluated query echoed
// back plus one result per matching series (shard labels included —
// the store scrapes every shard's registry, so a sharded gateway's
// /query is already the merged cross-shard view).
type QueryResponse struct {
	Metric string              `json:"metric"`
	Op     string              `json:"op"`
	Series []tsdb.SeriesResult `json:"series"`
}

// AlertsResponse is the GET /alerts reply: the pages firing right now
// plus the retained firing/resolved transition history (oldest first).
type AlertsResponse struct {
	Active  []tsdb.Alert `json:"active"`
	History []tsdb.Event `json:"history"`
}

// handleQuery serves GET /query against the embedded time-series
// store. Parameters: metric (required), op (last|avg|min|max|increase|
// rate|quantile, default last), q (quantile in [0,1]), window (Go
// duration, default 1m), label=k=v (repeatable matcher), range=1
// (include the window's points), format=ndjson (stream the matching
// raw samples as NDJSON instead of evaluating the op).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q := tsdb.Query{
		Metric: params.Get("metric"),
		Op:     tsdb.Op(params.Get("op")),
		Range:  params.Get("range") != "",
	}
	if v := params.Get("q"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad q: "+v)
			return
		}
		q.Q = f
	}
	if v := params.Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "bad window: "+v)
			return
		}
		q.Window = d
	}
	for _, pair := range params["label"] {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k == "" {
			writeError(w, http.StatusBadRequest, "bad label matcher (want k=v): "+pair)
			return
		}
		if q.Match == nil {
			q.Match = map[string]string{}
		}
		q.Match[k] = v
	}
	if params.Get("format") == "ndjson" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		s.tsdb.WriteNDJSON(w, q.Metric, q.Match, q.Window) //nolint:errcheck // peer gone: nothing to do
		return
	}
	series, err := s.tsdb.Query(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	op := string(q.Op)
	if op == "" {
		op = string(tsdb.OpLast)
	}
	writeJSON(w, http.StatusOK, QueryResponse{Metric: q.Metric, Op: op, Series: series})
}

// handleSLO serves GET /slo: every configured objective's fast and slow
// burn-rate pages as of the last scrape.
func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.tsdb.SLOStatus())
}

// handleAlerts serves GET /alerts: currently-firing pages plus the
// retained transition history.
func (s *Server) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	resp := AlertsResponse{Active: s.tsdb.ActiveAlerts(), History: s.tsdb.AlertHistory()}
	if resp.History == nil {
		resp.History = []tsdb.Event{}
	}
	writeJSON(w, http.StatusOK, resp)
}

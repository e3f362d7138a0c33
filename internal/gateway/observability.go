package gateway

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"microfaas/internal/telemetry"
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
	Active  []tsdb.Alert      `json:"active"`
	History []telemetry.Event `json:"history"`
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
		resp.History = []telemetry.Event{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ShardEvent is one lifecycle event in the /events reply, tagged with
// the shard whose log it came from.
type ShardEvent struct {
	telemetry.Event
	Shard string `json:"shard"`
}

// EventsResponse is the GET /events reply. Cursor carries, per shard in
// shard order and comma-separated, the last sequence number this page
// returned (or the request's own cursor where the page returned nothing
// for that shard); pass it back as ?since= to poll incrementally. Each
// shard's event log numbers independently, so the cursor is a vector —
// for a plane of one it is a single integer. Dropped is the exact
// number of events newer than the cursor that the rings overwrote before
// this page was read, summed over shards: a poller that sees Dropped > 0
// lost that many events, no seq-jump inference needed. Events is always
// a JSON array, [] when the page is empty.
type EventsResponse struct {
	Events  []ShardEvent `json:"events"`
	Cursor  string       `json:"cursor"`
	Dropped int64        `json:"dropped"`
}

// handleEvents serves the lifecycle-event rings as one stream. ?since=
// is the cursor a previous page returned — or a single integer applied
// to every shard (default -1: everything retained); ?max=N caps the page
// size (default 256, at most 4096). The page is a k-way merge of the
// shards' rings: the earliest head event (ties to the lower shard index)
// is taken until the page is full, so each shard contributes a prefix of
// what it holds past the cursor, in sequence order, and a truncated page
// resumes exactly where it stopped.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	max := 256
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad max: "+v)
			return
		}
		max = n
	}
	if max > 4096 {
		max = 4096
	}
	since := r.URL.Query().Get("since")
	if since == "" {
		since = "-1"
	}
	parts := strings.Split(since, ",")
	if len(parts) != 1 && len(parts) != len(s.shards) {
		writeError(w, http.StatusBadRequest,
			"bad since: cursor has "+strconv.Itoa(len(parts))+" fields, gateway has "+strconv.Itoa(len(s.shards))+" shards")
		return
	}
	cursors := make([]int64, len(s.shards))
	for i := range cursors {
		// One field applies to every shard; otherwise field i is shard i's.
		n, err := strconv.ParseInt(parts[i%len(parts)], 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad since: "+since)
			return
		}
		cursors[i] = n
	}
	pages := make([][]telemetry.Event, len(s.shards))
	var dropped int64
	for si, sh := range s.shards {
		var gap int64 // a shard without telemetry has no ring: an empty page
		pages[si], gap, _ = sh.tel.Events().Page(cursors[si], max)
		dropped += gap
	}
	merged := []ShardEvent{} // stable shape: [] even with nothing to report
	for len(merged) < max {
		next := -1
		for si, page := range pages {
			if len(page) > 0 && (next < 0 || page[0].AtMs < pages[next][0].AtMs) {
				next = si
			}
		}
		if next < 0 {
			break
		}
		ev := pages[next][0]
		pages[next] = pages[next][1:]
		cursors[next] = ev.Seq
		merged = append(merged, ShardEvent{Event: ev, Shard: s.shards[next].label})
	}
	cursor := make([]string, len(cursors))
	for i, c := range cursors {
		cursor[i] = strconv.FormatInt(c, 10)
	}
	writeJSON(w, http.StatusOK, EventsResponse{Events: merged, Cursor: strings.Join(cursor, ","), Dropped: dropped})
}

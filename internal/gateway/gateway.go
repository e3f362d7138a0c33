// Package gateway exposes a running MicroFaaS cluster as an HTTP FaaS
// endpoint — the integration surface the paper's conclusion anticipates
// ("integrations for widely-used FaaS orchestration software").
//
// Routes:
//
//	POST /invoke           {"function": "...", "args": {...}} → synchronous result
//	POST /invoke?async=1   same body → 202 with {"job_id": N} immediately
//	GET  /jobs/{id}        async job status: 200 result, 404 unknown, 202 pending
//	GET  /functions        list of deployable function names
//	GET  /workers          per-worker health: breaker state, failure counts, queue depth
//	GET  /stats            per-function runtime statistics and cluster totals (live:
//	                       completed/errors are lifetime, functions cover the retained
//	                       window of recent records)
//	GET  /power            power-manager snapshots, one {"shard","snapshot"} row per shard:
//	                       per-node power states, cap, pending wakes
//	POST /power/cap        {"cap_w": N} adjusts the cluster power cap (0 removes it),
//	                       divided evenly across the shards; replies like GET /power
//	GET  /forecast         prediction-controller snapshot: mode, error ratio, warm target,
//	                       per-function rate/EWMA/ahead forecasts
//	GET  /budgets          per-function energy budgets, one {"shard","budgets"} row per
//	                       shard: limit, spent, exhausted
//	POST /budgets          {"function": "...", "limit_j": N} sets/updates a budget on every
//	                       shard (N <= 0 removes); replies like GET /budgets
//	GET  /healthz          liveness probe: mode, uptime, build version
//	GET  /metrics          Prometheus text exposition (telemetry-enabled servers)
//	GET  /events           ring-buffered invocation lifecycle events, every shard's ring
//	                       merged by time (?since=CURSOR&max=N; the reply's "cursor" is
//	                       the last sequence returned per shard, comma-separated)
//	GET  /query            windowed time-series query (?metric=&op=&q=&window=&label=k=v
//	                       &range=1; ?format=ndjson streams raw samples instead)
//	GET  /slo              every SLO rule's fast/slow burn-rate page state
//	GET  /alerts           currently-firing pages plus the alert transition history
//	GET  /traces           per-invocation trace summaries (?job=N | ?slowest=N | ?limit=N;
//	                       ?format=chrome|ndjson streams a raw export instead)
//	GET  /traces/{id}      one trace's critical-path breakdown plus its raw spans
//	GET  /shards           per-shard capacity snapshots (sharded gateways only)
//	POST /shards/{id}/drain  take one shard out of service, migrating its queue
//	POST /shards/{id}/join   return a drained/dead shard to service
//	GET  /debug/pprof/*    net/http/pprof profiler (only when Options.EnablePprof)
//
// A gateway fronts an ordered list of orchestrator shards. A lone
// orchestrator (NewWithOptions) is a list of one; a sharded control plane
// (NewSharded) is its shards in ring order, plus the plane itself for
// key routing on /invoke and the /shards admin routes. Every read
// endpoint is one loop over that list, so both answer in the same shape:
// /events pages by per-shard cursor and /power, /power/cap and /budgets
// reply with one row per shard whether there is one shard or sixty-four.
// (Those four were the only routes whose lone-orchestrator reply changed
// when the two code paths became one; rows and events of an unlabelled
// lone orchestrator omit "shard".)
//
// Async jobs live in one table, one row per job, and move one way:
//
//	pending ──completion──► done ──first GET /jobs/{id}──► fetched
//	  202                  200/422, once                    404
//
// A row is created when the job is first seen — by the submitting handler
// or, when a fast worker wins the race, by the completion callback — and
// never created twice, so a completed job is never re-marked pending. It
// is dropped RetainAsync (10 minutes) after its last transition into
// pending or done; a fetched row gives its result back at once and stays
// only as a marker. One expiry queue in first-sight order makes every
// async operation amortised O(1): a reap pops the expired prefix and
// nothing else. A poll that finds its job pending is held one millisecond
// and looks again before it answers, so a tight polling loop is paced by
// the server and a fast function's result rides the first poll.
//
// POST /invoke bodies are limited to 1 MiB (413 beyond), and a connection
// has 10 seconds to deliver its request headers.
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/forecast"
	"microfaas/internal/power"
	"microfaas/internal/powermgr"
	"microfaas/internal/shard"
	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
	"microfaas/internal/tracing"
	"microfaas/internal/tsdb"
	"microfaas/internal/version"
	"microfaas/internal/workload"
)

// InvokeRequest is the POST /invoke body. Key only matters on sharded
// gateways: it is the consistent-hash routing key, defaulting to the
// function name (so a function's invocations colocate on one shard);
// pass a compound key like "user/123" to spread a hot function.
type InvokeRequest struct {
	Function string          `json:"function"`
	Args     json.RawMessage `json:"args"`
	Key      string          `json:"key,omitempty"`
}

// InvokeResponse is the POST /invoke reply.
type InvokeResponse struct {
	JobID  int64           `json:"job_id"`
	Worker string          `json:"worker"`
	Output json.RawMessage `json:"output,omitempty"`
	Error  string          `json:"error,omitempty"`
	BootMs float64         `json:"boot_ms"`
	OvhMs  float64         `json:"overhead_ms"`
	ExecMs float64         `json:"exec_ms"`
	// TotalMs is the worker-side cycle (boot+overhead+exec); QueuedMs the
	// time the job waited in its queue before a worker started it
	// (StartedAt − SubmittedAt); TotalLatencyMs the end-to-end latency
	// from submission to result (FinishedAt − SubmittedAt).
	TotalMs        float64 `json:"total_ms"`
	QueuedMs       float64 `json:"queued_ms"`
	TotalLatencyMs float64 `json:"total_latency_ms"`
}

// makeResponse renders a final invocation result as the HTTP reply body.
func makeResponse(res core.Result) InvokeResponse {
	return InvokeResponse{
		JobID:          res.Job.ID,
		Worker:         res.WorkerID,
		Output:         json.RawMessage(res.Output),
		Error:          res.Err,
		BootMs:         ms(res.Boot),
		OvhMs:          ms(res.Overhead),
		ExecMs:         ms(res.Exec),
		TotalMs:        ms(res.Boot + res.Overhead + res.Exec),
		QueuedMs:       ms(res.StartedAt - res.Job.SubmittedAt),
		TotalLatencyMs: ms(res.FinishedAt - res.Job.SubmittedAt),
	}
}

// StatsResponse is the GET /stats reply.
type StatsResponse struct {
	Completed int                   `json:"completed"`
	Errors    int                   `json:"errors"`
	Pending   int                   `json:"pending"`
	Functions []trace.FunctionStats `json:"functions"`
}

// status is the HTTP status the reply travels under, sync or async: 422
// when the function failed.
func (r *InvokeResponse) status() int {
	if r.Error != "" {
		return http.StatusUnprocessableEntity
	}
	return http.StatusOK
}

// asyncJob is one async invocation's row in the job table: pending (no
// result, not completed: 202), then done (result held: 200 or 422, once),
// then fetched (completed, result released: 404) until the row expires.
// Expiries are offsets on the server's own clock (time since start): a row
// and a queue entry are kept per job for the whole retention window, and a
// time.Time would triple the size of both.
type asyncJob struct {
	result    *InvokeResponse
	completed bool
	expiresAt time.Duration
}

// asyncExpiry is a job's place in the expiry queue, filed when the job is
// first seen under the expiry its row had then.
type asyncExpiry struct {
	id int64
	at time.Duration
}

// RetainAsync is how long async state is kept: a pending job whose
// completion never comes (abandoned in a drain) is forgotten this long
// after submission, a completed one this long after completion.
const RetainAsync = 10 * time.Minute

// maxInvokeBody bounds a POST /invoke body (function name plus JSON
// arguments); a larger one is answered 413 without being read further.
const maxInvokeBody = 1 << 20

// pollBeat is how long a poll that finds its job pending is held before it
// looks again and answers: a client polling in a tight loop costs one
// request per beat instead of all its connection can carry, and a job that
// finishes within the beat is answered by the poll that found it pending.
const pollBeat = time.Millisecond

// readHeaderTimeout bounds how long a connection may take to send its
// request headers: an idle or trickling client cannot hold one for free.
const readHeaderTimeout = 10 * time.Second

// Options configures a Server beyond the orchestrator it fronts.
type Options struct {
	// Timeout bounds a synchronous invocation wait (default 5 minutes).
	Timeout time.Duration
	// Mode labels the cluster behind the gateway — "sim" or "live" — in
	// the /healthz body (default "live").
	Mode string
	// Telemetry, when set, backs a lone orchestrator's GET /metrics and
	// GET /events. Without it both routes answer 404. (A plane's shards
	// each carry their own; see NewSharded.)
	Telemetry *telemetry.Telemetry
	// Tracer, when set, backs GET /traces and GET /traces/{id}. Without it
	// both routes answer 404. Usually the same tracer wired into the
	// cluster behind the orchestrator.
	Tracer *tracing.Tracer
	// TSDB, when set, backs GET /query, GET /slo, and GET /alerts.
	// Without it all three answer 404.
	TSDB *tsdb.Store
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default: the profiler exposes heap and goroutine internals, so it is
	// strictly opt-in).
	EnablePprof bool
	// ShardID overrides the shard label reported in /healthz. Defaults to
	// the fronted orchestrator's core.Config.ShardLabel ("" when
	// unsharded, or when the gateway fronts a whole plane).
	ShardID string
	// Forecast, when set, backs GET /forecast with the prediction
	// controller's live snapshot. Without it the route answers 404.
	Forecast *forecast.Controller
}

// HealthResponse is the GET /healthz reply. ShardID and ShardCount are
// always present: an unsharded gateway reports "" and 1, a gateway
// fronting a whole plane reports "" and the shard count, and a gateway
// fronting one shard of a larger deployment reports that shard's label.
type HealthResponse struct {
	Status     string  `json:"status"`
	Mode       string  `json:"mode"`
	UptimeS    float64 `json:"uptime_s"`
	Version    string  `json:"version"`
	ShardID    string  `json:"shard_id"`
	ShardCount int     `json:"shard_count"`
}

// shardRef is one orchestrator behind the gateway: the label its rows
// and events carry ("" for an unlabelled lone orchestrator) and the
// telemetry backing its slice of /events (nil when disabled).
type shardRef struct {
	label string
	orch  *core.Orchestrator
	tel   *telemetry.Telemetry
}

// Server serves the gateway over HTTP. It always holds an ordered shard
// list — one entry for a lone orchestrator — and every read handler is a
// loop over it. plane is set only when the gateway fronts a whole
// shard.Plane, for the /shards admin routes.
type Server struct {
	shards []shardRef
	plane  *shard.Plane
	// submit hands one invocation to the cluster and returns its job id
	// (0 while draining); metrics writes the /metrics exposition (nil =
	// 404). Both are chosen once at construction, so a lone orchestrator
	// pays no ring lookup on /invoke and serves its registry unlabelled.
	submit  func(req InvokeRequest, args []byte, cb func(core.Result)) int64
	metrics func(io.Writer) error

	timeout  time.Duration
	mode     string
	shardID  string
	tracer   *tracing.Tracer
	tsdb     *tsdb.Store
	forecast *forecast.Controller
	pprof    bool
	start    time.Time

	mu   sync.Mutex
	http *http.Server
	// jobs is the async job table and expiry its reaping order: one entry
	// per row, in first-sight order. RetainAsync is one constant, so that
	// is also expiry order — except that completion pushes a row's expiry
	// back without moving its entry, which reapLocked re-files on sight.
	jobs   map[int64]asyncJob
	expiry []asyncExpiry
	now    func() time.Time // time.Now; the async-table tests step it
}

// NewWithOptions wraps a lone orchestrator: a shard list of one, submitted
// to directly. Options.Telemetry backs its /metrics and /events.
func NewWithOptions(orch *core.Orchestrator, opts Options) (*Server, error) {
	if orch == nil {
		return nil, fmt.Errorf("gateway: orchestrator required")
	}
	if opts.ShardID == "" {
		opts.ShardID = orch.ShardLabel()
	}
	s := newServer(opts, []shardRef{{label: orch.ShardLabel(), orch: orch, tel: opts.Telemetry}})
	s.submit = func(req InvokeRequest, args []byte, cb func(core.Result)) int64 {
		return orch.SubmitAsync(req.Function, args, cb)
	}
	if opts.Telemetry != nil {
		s.metrics = opts.Telemetry.Registry().WritePrometheus
	}
	return s, nil
}

// NewSharded fronts a whole sharded control plane: /invoke routes
// through the plane's consistent-hash tier (keyed by InvokeRequest.Key,
// defaulting to the function name), and the read endpoints cover every
// shard. Each shard's own telemetry backs /metrics (merged under shard
// labels, after the plane's registry) and /events; Options.Telemetry is
// not consulted. Options.Tracer should be the instance the shards share.
func NewSharded(plane *shard.Plane, opts Options) (*Server, error) {
	if plane == nil {
		return nil, fmt.Errorf("gateway: shard plane required")
	}
	labels := plane.Labels()
	shards := make([]shardRef, plane.NumShards())
	for i, o := range plane.Shards() {
		shards[i] = shardRef{label: labels[i], orch: o, tel: o.Telemetry()}
	}
	s := newServer(opts, shards)
	s.plane = plane
	s.submit = func(req InvokeRequest, args []byte, cb func(core.Result)) int64 {
		key := req.Key
		if key == "" {
			key = req.Function
		}
		id, _ := plane.Submit(key, req.Function, args, cb)
		return id
	}
	s.metrics = plane.WriteMergedMetrics
	return s, nil
}

// newServer applies option defaults and builds a Server over the shard
// list; the two exported constructors attach the submit and metrics
// routes.
func newServer(opts Options, shards []shardRef) *Server {
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Minute
	}
	if opts.Mode == "" {
		opts.Mode = "live"
	}
	return &Server{
		shards:   shards,
		timeout:  opts.Timeout,
		mode:     opts.Mode,
		shardID:  opts.ShardID,
		tracer:   opts.Tracer,
		tsdb:     opts.TSDB,
		forecast: opts.Forecast,
		pprof:    opts.EnablePprof,
		start:    time.Now(),
		jobs:     make(map[int64]asyncJob),
		now:      time.Now,
	}
}

// Handler returns the HTTP handler (useful for embedding and tests).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/invoke", s.handleInvoke)
	mux.HandleFunc("/jobs/", s.handleJobStatus)
	mux.HandleFunc("/functions", s.handleFunctions)
	mux.HandleFunc("/workers", s.handleWorkers)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/power", s.handlePower)
	mux.HandleFunc("/power/cap", s.handlePowerCap)
	mux.HandleFunc("/forecast", s.handleForecast)
	mux.HandleFunc("/budgets", s.handleBudgets)
	mux.HandleFunc("/shards", s.handleShards)
	mux.HandleFunc("/shards/", s.handleShardOp)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/slo", s.handleSLO)
	mux.HandleFunc("/alerts", s.handleAlerts)
	mux.HandleFunc("/traces", s.handleTraces)
	mux.HandleFunc("/traces/", s.handleTraceByID)
	if s.pprof {
		mountPprof(mux)
	}
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:     "ok",
		Mode:       s.mode,
		UptimeS:    time.Since(s.start).Seconds(),
		Version:    version.Version,
		ShardID:    s.shardID,
		ShardCount: len(s.shards),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.metrics == nil {
		writeError(w, http.StatusNotFound, "telemetry disabled on this gateway")
		return
	}
	w.Header().Set("Content-Type", telemetry.TextContentType)
	s.metrics(w) //nolint:errcheck // peer gone: nothing to do
}

// Listen binds addr and serves in the background, returning the bound
// address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("gateway: listen: %w", err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	s.mu.Lock()
	s.http = srv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	return ln.Addr().String(), nil
}

// Close shuts the HTTP listener down.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.http
	s.http = nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// decodeBody reads a control route's JSON body into v, bounded like an
// invoke body. On failure it has answered — 413 past the bound, 400
// otherwise — and returns false. handleInvoke keeps its own copy: its
// allocation count is pinned and v escapes here.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInvokeBody)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, "bad request body: "+err.Error())
	return false
}

func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req InvokeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInvokeBody)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "bad request body: "+err.Error())
		return
	}
	if req.Function == "" {
		writeError(w, http.StatusBadRequest, "function name required")
		return
	}
	if _, err := workload.Get(req.Function); err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	args := []byte(req.Args)
	if len(args) == 0 {
		args = []byte("{}")
	}
	if r.URL.Query().Get("async") != "" {
		s.invokeAsync(w, req, args)
		return
	}
	resCh := make(chan core.Result, 1)
	jobID := s.submit(req, args, func(res core.Result) {
		resCh <- res
	})
	if jobID == 0 {
		writeError(w, http.StatusServiceUnavailable, "gateway draining; not accepting new invocations")
		return
	}
	// Stopped on return: an unstopped timer (time.After) stays reachable
	// until it fires, pinning a timer and channel per request for the
	// whole timeout under the go 1.22 semantics go.mod selects.
	timeout := time.NewTimer(s.timeout)
	defer timeout.Stop()
	select {
	case res := <-resCh:
		resp := makeResponse(res)
		writeJSON(w, resp.status(), resp)
	case <-timeout.C:
		writeError(w, http.StatusGatewayTimeout, "invocation timed out")
	case <-r.Context().Done():
		// Client gave up; the job still completes and is recorded.
	}
}

// invokeAsync submits without waiting and returns 202 with the job id.
func (s *Server) invokeAsync(w http.ResponseWriter, req InvokeRequest, args []byte) {
	jobID := s.submit(req, args, s.recordAsync)
	if jobID == 0 {
		writeError(w, http.StatusServiceUnavailable, "gateway draining; not accepting new invocations")
		return
	}
	s.markPending(jobID)
	writeJSON(w, http.StatusAccepted, map[string]int64{"job_id": jobID})
}

// markPending files a just-submitted async job as in flight — unless the
// job has been seen already: live workers are fast, and its completion
// (even the pickup of its result by a fast poller) can land before the
// submitting handler gets here. A pending row carries its own expiry, or a
// job whose callback never fires (abandoned in a drain) would stay forever.
func (s *Server) markPending(jobID int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, seen := s.jobs[jobID]; !seen {
		at := s.now().Sub(s.start) + RetainAsync
		s.jobs[jobID] = asyncJob{expiresAt: at}
		s.expiry = append(s.expiry, asyncExpiry{id: jobID, at: at})
	}
}

// recordAsync is the async completion callback: it files the result for
// pickup and restarts the row's retention window. A row seen before keeps
// its place in the expiry queue; reapLocked re-files it when it surfaces.
func (s *Server) recordAsync(res core.Result) {
	resp := makeResponse(res)
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now().Sub(s.start)
	s.reapLocked(now)
	at := now + RetainAsync
	if _, seen := s.jobs[res.Job.ID]; !seen {
		s.expiry = append(s.expiry, asyncExpiry{id: res.Job.ID, at: at})
	}
	s.jobs[res.Job.ID] = asyncJob{result: &resp, completed: true, expiresAt: at}
}

// reapLocked drops the rows whose retention has passed. It pops only the
// expired prefix of the expiry queue, so its cost is the number of rows
// that expired since the last call, not the size of the table. An entry
// whose row was completed since it was filed carries a stale, early expiry
// and is re-filed at the back — behind later expiries, so such a row may
// outstay its own (by less than RetainAsync), which is why liveJobLocked
// checks expiresAt itself. Caller holds s.mu.
func (s *Server) reapLocked(now time.Duration) {
	for len(s.expiry) > 0 && now > s.expiry[0].at {
		id := s.expiry[0].id
		s.expiry = s.expiry[1:]
		if j := s.jobs[id]; now > j.expiresAt {
			delete(s.jobs, id)
		} else {
			s.expiry = append(s.expiry, asyncExpiry{id: id, at: j.expiresAt})
		}
	}
}

// liveJobLocked reaps, then looks the job's row up; false when there is
// none or it has expired. Caller holds s.mu.
func (s *Server) liveJobLocked(id int64) (asyncJob, bool) {
	now := s.now().Sub(s.start)
	s.reapLocked(now)
	j, ok := s.jobs[id]
	return j, ok && now <= j.expiresAt
}

// handleJobStatus serves GET /jobs/{id}: 200/422 with the result (handed
// over exactly once: the row stays, its result released), 202 while
// pending (after holding the poll one pollBeat in case the job finishes),
// 404 for unknown, expired or already-fetched jobs.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	id, err := strconv.ParseInt(strings.TrimPrefix(r.URL.Path, "/jobs/"), 10, 64)
	if err != nil || id <= 0 {
		writeError(w, http.StatusBadRequest, "bad job id")
		return
	}
	s.mu.Lock()
	j, ok := s.liveJobLocked(id)
	if ok && !j.completed { // pending: hold the poll one beat, look again
		s.mu.Unlock()
		time.Sleep(pollBeat)
		s.mu.Lock()
		j, ok = s.liveJobLocked(id)
	}
	if ok && j.result != nil { // done → fetched: the row stays as the marker
		s.jobs[id] = asyncJob{completed: true, expiresAt: j.expiresAt}
	}
	s.mu.Unlock()
	switch {
	case ok && j.result != nil:
		writeJSON(w, j.result.status(), j.result)
	case ok && !j.completed:
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "pending"})
	default:
		writeError(w, http.StatusNotFound, "unknown, expired, or already-fetched job")
	}
}

func (s *Server) handleFunctions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, workload.Names())
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	type workerInfo struct {
		core.WorkerHealth
		Breaker string `json:"breaker"`
		Shard   string `json:"shard,omitempty"`
	}
	out := []workerInfo{} // stable shape: [] even with nothing to report
	for _, sh := range s.shards {
		for _, h := range sh.orch.Health() {
			out = append(out, workerInfo{WorkerHealth: h, Breaker: h.State.String(), Shard: sh.label})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleShards serves GET /shards: every shard's capacity snapshot —
// worker count, pending and queued depth, ring weight, and steal
// counters — in ring order. Unsharded gateways answer 404.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.plane == nil {
		writeError(w, http.StatusNotFound, "this gateway fronts an unsharded control plane")
		return
	}
	writeJSON(w, http.StatusOK, s.plane.Status())
}

// handleShardOp serves POST /shards/{id}/drain and /shards/{id}/join:
// administratively take one shard out of service (its queued work
// migrates to the others, exactly like a health-detected death) or
// return it. {id} is the shard index or its label. Replies with the
// shard's fresh status snapshot.
func (s *Server) handleShardOp(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.plane == nil {
		writeError(w, http.StatusNotFound, "this gateway fronts an unsharded control plane")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/shards/")
	name, op, ok := strings.Cut(rest, "/")
	if !ok || name == "" {
		writeError(w, http.StatusNotFound, "use /shards/{id}/drain or /shards/{id}/join")
		return
	}
	idx := -1
	if n, err := strconv.Atoi(name); err == nil {
		idx = n
	} else {
		for i, label := range s.plane.Labels() {
			if label == name {
				idx = i
				break
			}
		}
	}
	if idx < 0 || idx >= s.plane.NumShards() {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown shard %q", name))
		return
	}
	var err error
	switch op {
	case "drain":
		err = s.plane.DrainShard(idx)
	case "join":
		err = s.plane.JoinShard(idx)
	default:
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown shard operation %q", op))
		return
	}
	if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, s.plane.Status()[idx])
}

// shardPower is one shard's power snapshot inside the /power and
// /power/cap replies.
type shardPower struct {
	Shard    string          `json:"shard,omitempty"`
	Snapshot powermgr.Status `json:"snapshot"`
}

// managed returns the shards that run a power manager, in shard order.
func (s *Server) managed() []shardRef {
	var out []shardRef
	for _, sh := range s.shards {
		if sh.orch.PowerManager() != nil {
			out = append(out, sh)
		}
	}
	return out
}

// writePower replies with every managed shard's power snapshot, or 404
// when no shard runs a power manager (the static power policy).
func (s *Server) writePower(w http.ResponseWriter) {
	managed := s.managed()
	if len(managed) == 0 {
		writeError(w, http.StatusNotFound, "power management disabled on this cluster")
		return
	}
	out := make([]shardPower, len(managed))
	for i, sh := range managed {
		out[i] = shardPower{Shard: sh.label, Snapshot: sh.orch.PowerManager().Snapshot()}
	}
	writeJSON(w, http.StatusOK, out)
}

// handlePower serves GET /power: each shard's power-manager snapshot —
// per-node states, the active cap, and cap-parked wakes — as an array in
// shard order. Clusters running the static power policy (no manager)
// answer 404.
func (s *Server) handlePower(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	s.writePower(w)
}

// handlePowerCap serves POST /power/cap with body {"cap_w": N}: it adjusts
// the cluster power budget at runtime (0 removes the cap) and returns the
// resulting snapshots, shaped like GET /power. The budget is divided
// evenly across the shards that run a power manager (each shard caps its
// own partition; a lone orchestrator gets all of it). Lowering the cap
// never force-kills powered nodes; the cluster converges downward as they
// idle out.
func (s *Server) handlePowerCap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req struct {
		CapW float64 `json:"cap_w"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	managed := s.managed()
	for _, sh := range managed {
		if err := sh.orch.PowerManager().SetCapW(power.Watts(req.CapW / float64(len(managed)))); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	s.writePower(w)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	// Completed and Errors are lifetime counts; Functions covers the
	// records the shards still retain (a live cluster keeps a recent
	// window), read in place as one table so percentiles span the cluster.
	var out StatsResponse
	colls := make([]*trace.Collector, len(s.shards))
	for i, sh := range s.shards {
		colls[i] = sh.orch.Collector()
		errs := colls[i].ErrorCount()
		out.Completed += colls[i].Len() - errs
		out.Errors += errs
		out.Pending += sh.orch.Pending()
	}
	out.Functions = trace.ByFunction(colls...)
	writeJSON(w, http.StatusOK, out)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

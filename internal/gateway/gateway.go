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
//	GET  /stats            per-function runtime statistics and cluster totals
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
// Async results are retained for a bounded window (RetainAsync, default
// 10 minutes) and deleted on first successful read.
package gateway

import (
	"encoding/json"
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

// asyncEntry is a completed async job's retained result.
type asyncEntry struct {
	resp      InvokeResponse
	status    int
	expiresAt time.Time
}

// RetainAsync is how long a completed async result stays fetchable.
const RetainAsync = 10 * time.Minute

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

	mu      sync.Mutex
	http    *http.Server
	pending map[int64]time.Time  // async jobs in flight -> expiry
	done    map[int64]asyncEntry // async results awaiting pickup
	// settled marks async jobs whose completion callback has fired,
	// surviving the (pickup-once) deletion of their done entry. It closes
	// the submit/complete race: a completion observed here is never
	// re-marked pending, no matter how the callback and the submitting
	// handler interleave. Entries expire with their done entry's window.
	settled map[int64]time.Time
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
		pending:  make(map[int64]time.Time),
		done:     make(map[int64]asyncEntry),
		settled:  make(map[int64]time.Time),
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
	srv := &http.Server{Handler: s.Handler()}
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

func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req InvokeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
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
		status := http.StatusOK
		if res.Err != "" {
			status = http.StatusUnprocessableEntity
		}
		writeJSON(w, status, resp)
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

// recordAsync is the async completion callback: it retires the pending
// entry and files the result for pickup.
func (s *Server) recordAsync(res core.Result) {
	entry := asyncEntry{
		resp:      makeResponse(res),
		status:    http.StatusOK,
		expiresAt: time.Now().Add(RetainAsync),
	}
	if res.Err != "" {
		entry.status = http.StatusUnprocessableEntity
	}
	s.mu.Lock()
	delete(s.pending, res.Job.ID)
	s.done[res.Job.ID] = entry
	s.settled[res.Job.ID] = entry.expiresAt
	s.reapLocked()
	s.mu.Unlock()
}

// markPending files a just-submitted async job as in flight. The callback
// may already have fired (live workers are fast) — or fired and had its
// result fetched by a fast poller, erasing the done entry. settled
// remembers every completion for the retention window, so a job is marked
// pending only if it has genuinely not finished yet. Pending entries carry
// their own expiry: a job whose callback never fires (abandoned in a
// drain) would otherwise leak its entry forever.
func (s *Server) markPending(jobID int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, completed := s.settled[jobID]; !completed {
		s.pending[jobID] = time.Now().Add(RetainAsync)
	}
}

// reapLocked drops expired async state — results awaiting pickup, the
// settled markers, and pending entries whose completion never came.
// Caller holds s.mu.
func (s *Server) reapLocked() {
	now := time.Now()
	for id, e := range s.done {
		if now.After(e.expiresAt) {
			delete(s.done, id)
		}
	}
	for id, exp := range s.settled {
		if now.After(exp) {
			delete(s.settled, id)
		}
	}
	for id, exp := range s.pending {
		if now.After(exp) {
			delete(s.pending, id)
		}
	}
}

// handleJobStatus serves GET /jobs/{id}: 200/422 with the result (consumed
// on read), 202 while pending, 404 for unknown or expired jobs.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil || id <= 0 {
		writeError(w, http.StatusBadRequest, "bad job id")
		return
	}
	s.mu.Lock()
	s.reapLocked()
	if entry, ok := s.done[id]; ok {
		delete(s.done, id) // results are picked up exactly once
		s.mu.Unlock()
		writeJSON(w, entry.status, entry.resp)
		return
	}
	_, pending := s.pending[id]
	s.mu.Unlock()
	if pending {
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "pending"})
		return
	}
	writeError(w, http.StatusNotFound, "unknown, expired, or already-fetched job")
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
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
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
	// One shard's collector is read in place; several are merged into one
	// so the per-function stats (percentiles included) cover the cluster.
	coll := s.shards[0].orch.Collector()
	if len(s.shards) > 1 {
		coll = trace.NewCollector()
		for _, sh := range s.shards {
			for _, r := range sh.orch.Collector().Records() {
				coll.Add(r)
			}
		}
	}
	pending := 0
	for _, sh := range s.shards {
		pending += sh.orch.Pending()
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Completed: coll.Len() - coll.ErrorCount(),
		Errors:    coll.ErrorCount(),
		Pending:   pending,
		Functions: coll.ByFunction(),
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

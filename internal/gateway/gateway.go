// Package gateway exposes a running MicroFaaS cluster as an HTTP FaaS
// endpoint — the integration surface the paper's conclusion anticipates
// ("integrations for widely-used FaaS orchestration software").
//
// Routes:
//
//	POST /invoke           {"function": "...", "args": {...}} → synchronous result
//	POST /invoke?async=1   same body → 202 with {"job_id": N} immediately
//	GET  /jobs/{id}        async job result: 200/422 once, 404 unknown, 202 still pending
//	                       (a poll of a pending job waits up to a second for it)
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
//	GET  /healthz          liveness probe: mode, uptime, build version, shard count
//	GET  /metrics          Prometheus text exposition: the plane's registry, then every
//	                       shard's under its shard label
//	GET  /query            windowed time-series query (?metric=&op=&q=&window=&label=k=v
//	                       &range=1; ?format=ndjson streams raw samples instead)
//	GET  /slo              every SLO rule's fast/slow burn-rate page state
//	GET  /alerts           currently-firing pages plus the alert transition history
//	GET  /traces           critical-path breakdowns of the jobs in the record window, newest
//	                       last (?slowest=N | ?limit=N, default 100; ?format=chrome|ndjson
//	                       streams a raw export instead)
//	GET  /traces/{id}      one job's breakdown plus its phases; the id is the job id, and a
//	                       job not in the record window answers 404
//	GET  /shards           per-shard capacity snapshots
//	GET  /debug/pprof/*    net/http/pprof profiler (only when Options.EnablePprof)
//
// Handler registers exactly these method-and-path patterns, in this order,
// so the list is the contract. Routing errors come from net/http's mux and
// are text/plain: a path not listed answers 404, and a listed path under a
// method it does not serve answers 405 with an Allow header naming the
// methods it does. Every error a handler writes is JSON, {"error": "..."}.
// HEAD is served wherever GET is, with the headers and no body — except on
// /jobs/{id}, whose GET hands a result over exactly once: a HEAD there
// answers 405 (Allow: GET), spending no result and parking on no job. The
// profiler routes take any method.
//
// Which routes have a backing is fixed when the gateway is built: without
// Options.TSDB or Options.Forecast, or without a power manager on any
// shard (/power, /power/cap), a route answers a JSON 404 naming what is
// disabled.
//
// A gateway fronts one shard.Plane; a lone orchestrator is a plane of one
// shard. /invoke routes through the plane by key, and every read endpoint
// is one loop over its shards in ring order, so the replies have one
// shape whether there is one shard or sixty-four: rows name their shard,
// and /power, /power/cap and /budgets reply with one row per shard.
//
// Async jobs live in one table, one row per unfetched job, and move one way:
//
//	pending ──completion──► done ──first GET /jobs/{id}──► gone
//	  202                  200/422, once                    404
//
// The submitting handler makes the row and the completion callback closes
// over it, so a worker that finishes before the handler has filed the row
// just leaves its result on it. The row is dropped when its result is
// fetched, or RetainAsync (10 minutes) after its last transition into
// pending or done, so the table holds the jobs in flight and the results
// nobody has collected yet, and nothing per fetched job. Rows are threaded
// on a list in exact expiry order — completion moves a row to the back, a
// fetch unlinks it, a reap pops the expired head — so every async
// operation is O(1). A poll that finds its job pending parks on the row's
// completion and answers the moment the result is in; one that is still
// parked after pollHold answers 202, and one whose client hangs up goes
// away and leaves the result for a client that can read it.
//
// POST /invoke bodies are limited to 1 MiB (413 beyond). A connection has
// 10 seconds to deliver its request headers and 30 for the whole request,
// and is closed after two idle minutes; replies are not timed, because a
// sync invoke and a parked poll answer late by design.
//
// A result whose output is not JSON, which only a misbehaving worker
// sends, answers 502 on /invoke and /jobs/{id} alike.
package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/forecast"
	"microfaas/internal/power"
	"microfaas/internal/powermgr"
	"microfaas/internal/shard"
	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
	"microfaas/internal/tsdb"
	"microfaas/internal/version"
	"microfaas/internal/workload"
)

// InvokeRequest is the POST /invoke body. Key is the plane's
// consistent-hash routing key, defaulting to the function name (so a
// function's invocations colocate on one shard); pass a compound key like
// "user/123" to spread a hot function.
type InvokeRequest struct {
	Function string          `json:"function"`
	Args     json.RawMessage `json:"args"`
	Key      string          `json:"key,omitempty"`
}

// PowerCapRequest is the POST /power/cap body: the cluster power cap in
// watts, divided evenly across the powered shards (0 removes it).
type PowerCapRequest struct {
	CapW float64 `json:"cap_w"`
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
// result yet: 202), then done (result held: 200 or 422, once), then gone —
// the fetch, or expiry, drops the row. The submitting handler allocates it
// and files it under the job id (resp.JobID from then on); the completion
// callback holds the pointer, so it needs no lookup and works on a row not
// filed yet. Expiries are offsets on the server's own clock (time since
// start).
type asyncJob struct {
	resp      InvokeResponse
	completed bool
	expiresAt time.Duration
	// done is made by the first poll that parks on the row and closed by
	// the completion.
	done chan struct{}
	// prev and next thread the row on the server's expiry list; both nil
	// while the row is not in the table.
	prev, next *asyncJob
}

// RetainAsync is how long async state is kept: a pending job whose
// completion never comes (abandoned in a drain) is forgotten this long
// after submission, a completed one this long after completion.
const RetainAsync = 10 * time.Minute

// maxInvokeBody bounds a POST /invoke body (function name plus JSON
// arguments); a larger one is answered 413 without being read further.
const maxInvokeBody = 1 << 20

// pollHold is how long a poll that finds its job pending stays parked on
// the job's completion before it answers 202: long enough that a client
// polling in a loop costs one request a second, far inside any client's
// own timeout (faasctl's is 5 minutes).
const pollHold = time.Second

// The network edge's patience, applied by Listen: a connection may take
// readHeaderTimeout to send its request headers and readTimeout for the
// whole request, body included, and is closed after idleTimeout between
// requests, so an idle or trickling client cannot hold one for free.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// syncTimeout bounds a synchronous invocation wait; past it the client
// gets 504 while the job runs on.
const syncTimeout = 5 * time.Minute

// Options configures a Server beyond the plane it fronts.
type Options struct {
	// Mode labels the cluster behind the gateway — "sim" or "live" — in
	// the /healthz body (default "live").
	Mode string
	// Telemetry is not read: each shard's own telemetry backs /metrics
	// (see New). It is the instance the orchestrator already carries
	// wherever it is set.
	Telemetry *telemetry.Telemetry
	// Tracer is not read: GET /traces and GET /traces/{id} render every
	// shard's record window. It stays so code that still sets it compiles.
	Tracer *trace.Tracer
	// TSDB, when set, backs GET /query, GET /slo, and GET /alerts.
	// Without it all three answer 404.
	TSDB *tsdb.Store
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default: the profiler exposes heap and goroutine internals, so it is
	// strictly opt-in).
	EnablePprof bool
	// Forecast, when set, backs GET /forecast with the prediction
	// controller's live snapshot. Without it the route answers 404.
	Forecast *forecast.Controller
}

// HealthResponse is the GET /healthz reply.
type HealthResponse struct {
	Status     string  `json:"status"`
	Mode       string  `json:"mode"`
	UptimeS    float64 `json:"uptime_s"`
	Version    string  `json:"version"`
	ShardCount int     `json:"shard_count"`
}

// shardRef is one orchestrator behind the gateway and the label its rows
// carry.
type shardRef struct {
	label string
	orch  *core.Orchestrator
}

// Server serves the gateway over HTTP: the plane's shards in ring order,
// which every read handler loops over, and the plane itself for /invoke,
// /metrics and the /shards admin routes.
type Server struct {
	shards []shardRef
	plane  *shard.Plane
	// submit is the plane's Submit: it routes one invocation by key and
	// returns its job id (0 while draining). The async-table tests swap it
	// for a fake.
	submit func(key, function string, args []byte, cb func(core.Result)) (int64, int)

	// timeout is syncTimeout; in-package tests shorten it.
	timeout  time.Duration
	mode     string
	tsdb     *tsdb.Store
	forecast *forecast.Controller
	pprof    bool
	start    time.Time
	// powered is the shards that run a power manager, in shard order: the
	// ones /power reads and /power/cap divides the cap across.
	powered []shardRef

	mu   sync.Mutex
	http *http.Server
	// jobs is the async job table: a row per unfetched job. expiry is the
	// root of the ring that threads the rows in expiry order (expiry.next
	// expires first): RetainAsync is one constant and the clock does not run
	// backwards, so filing at the back keeps it sorted.
	jobs   map[int64]*asyncJob
	expiry asyncJob
	// now and newTimer are time.Now and time.NewTimer; the async-table
	// tests step the clock and the hold through them. edge is Listen's
	// connection timeouts, which the edge tests shorten.
	now      func() time.Time
	newTimer func(time.Duration) *time.Timer
	edge     struct{ header, read, idle time.Duration }

	// The async table's self-metrics (nil handles, costing nothing, without
	// telemetry): rows in the table, polls parked, and rows that expired
	// with nobody to tell — a result never collected, a callback that never
	// came.
	unfetched, pollsParked      *telemetry.Gauge
	expiredPending, expiredDone *telemetry.Counter
}

// New fronts a control plane — a lone orchestrator is a plane of one
// shard. /invoke routes through the plane's consistent-hash tier (keyed
// by InvokeRequest.Key, defaulting to the function name), and the read
// endpoints cover every shard. /metrics is the plane's registry, which
// holds the gateway's own families, followed by every shard's under its
// shard label, and each shard's record window backs its slice of
// /traces.
func New(plane *shard.Plane, opts Options) (*Server, error) {
	if plane == nil {
		return nil, fmt.Errorf("gateway: shard plane required")
	}
	if opts.Mode == "" {
		opts.Mode = "live"
	}
	labels := plane.Labels()
	shards := make([]shardRef, plane.NumShards())
	var powered []shardRef
	for i, o := range plane.Shards() {
		shards[i] = shardRef{label: labels[i], orch: o}
		if o.PowerManager() != nil {
			powered = append(powered, shards[i])
		}
	}
	reg := plane.Registry()
	const expiredHelp = "Async rows dropped at RetainAsync, by the state they were in: a result nobody collected (done) or a job whose completion never came (pending)."
	s := &Server{
		shards:   shards,
		plane:    plane,
		submit:   plane.Submit,
		timeout:  syncTimeout,
		mode:     opts.Mode,
		tsdb:     opts.TSDB,
		forecast: opts.Forecast,
		pprof:    opts.EnablePprof,
		start:    time.Now(),
		powered:  powered,
		jobs:     make(map[int64]*asyncJob),
		now:      time.Now,
		newTimer: time.NewTimer,

		unfetched:      reg.Gauge("microfaas_gateway_async_unfetched", "Async jobs in the gateway's table: in flight, or done and not yet fetched."),
		pollsParked:    reg.Gauge("microfaas_gateway_polls_parked", "GET /jobs/{id} requests parked on a pending job's completion."),
		expiredPending: reg.Counter("microfaas_gateway_async_expired_total", expiredHelp, "state", "pending"),
		expiredDone:    reg.Counter("microfaas_gateway_async_expired_total", expiredHelp, "state", "done"),
	}
	s.expiry.prev, s.expiry.next = &s.expiry, &s.expiry
	s.edge.header, s.edge.read, s.edge.idle = readHeaderTimeout, readTimeout, idleTimeout
	return s, nil
}

// Handler returns the HTTP handler (useful for embedding and tests): the
// package doc's route table, each route bound to its handler, or to a JSON
// 404 when what backs it is absent from this gateway.
func (s *Server) Handler() http.Handler {
	const (
		noPower = "power management disabled on this cluster"
		noTSDB  = "time-series store disabled on this gateway"
	)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /invoke", s.handleInvoke)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("HEAD /jobs/{id}", refuseHead)
	mux.HandleFunc("GET /functions", s.handleFunctions)
	mux.HandleFunc("GET /workers", s.handleWorkers)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /power", backed(len(s.powered) > 0, s.handlePower, noPower))
	mux.HandleFunc("POST /power/cap", backed(len(s.powered) > 0, s.handlePowerCap, noPower))
	mux.HandleFunc("GET /forecast", backed(s.forecast != nil, s.handleForecast, "prediction disabled on this cluster"))
	mux.HandleFunc("GET /budgets", s.handleBudgets)
	mux.HandleFunc("POST /budgets", s.handleSetBudget)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /query", backed(s.tsdb != nil, s.handleQuery, noTSDB))
	mux.HandleFunc("GET /slo", backed(s.tsdb != nil, s.handleSLO, noTSDB))
	mux.HandleFunc("GET /alerts", backed(s.tsdb != nil, s.handleAlerts, noTSDB))
	mux.HandleFunc("GET /traces", s.handleTraces)
	mux.HandleFunc("GET /traces/{id}", s.handleTraceByID)
	mux.HandleFunc("GET /shards", s.handleShards)
	if s.pprof {
		mountPprof(mux)
	}
	return mux
}

// backed is h when the route's backing is present, and otherwise a handler
// that answers 404 with why.
func backed(present bool, h http.HandlerFunc, why string) http.HandlerFunc {
	if present {
		return h
	}
	return func(w http.ResponseWriter, _ *http.Request) { writeError(w, http.StatusNotFound, why) }
}

// refuseHead answers HEAD /jobs/{id} as the mux answers a method a route
// does not serve: the GET there spends the result it reports, so a HEAD
// must not run it.
func refuseHead(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Allow", http.MethodGet)
	http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:     "ok",
		Mode:       s.mode,
		UptimeS:    time.Since(s.start).Seconds(),
		Version:    version.Version,
		ShardCount: len(s.shards),
	})
}

// handleMetrics serves the plane's merged exposition. The gateway's own
// families are on the plane's registry, so it answers even when the
// shards run without telemetry.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", telemetry.TextContentType)
	s.plane.WriteMergedMetrics(w) //nolint:errcheck // peer gone: nothing to do
}

// Listen binds addr and serves in the background, returning the bound
// address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("gateway: listen: %w", err)
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: s.edge.header,
		ReadTimeout:       s.edge.read,
		IdleTimeout:       s.edge.idle,
		// No WriteTimeout: it runs from the end of the request headers, so it
		// would cut off a parked poll and a slow function's sync reply.
		// (ReadTimeout does not: net/http lifts it once the body is read.)
	}
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

// replyEncoder is a pooled reply buffer with its json.Encoder bound to it.
type replyEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var replyPool = sync.Pool{New: func() any {
	e := &replyEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// writeJSON encodes v before it writes the status, so a reply that does not
// encode — a worker's Output that is not JSON — answers 502 with the
// reason, not status with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	e := replyPool.Get().(*replyEncoder)
	defer replyPool.Put(e)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		writeError(w, http.StatusBadGateway, "reply does not encode: "+err.Error())
		return
	}
	writeBody(w, status, e.buf.Bytes())
}

// pendingBody is the 202 a poll gets for a job still pending at the hold.
var pendingBody = []byte(`{"status":"pending"}` + "\n")

// writeBody replies with a JSON body that is already bytes: an encoded
// reply, or an async reply that carries no result.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // peer gone: nothing to do
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
	if req.Key == "" {
		req.Key = req.Function
	}
	if r.URL.Query().Get("async") != "" {
		s.invokeAsync(w, req, args)
		return
	}
	resCh := make(chan core.Result, 1)
	jobID, _ := s.submit(req.Key, req.Function, args, func(res core.Result) {
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

// invokeAsync submits without waiting and returns 202 with the job id. The
// row is filed once the id is known; a worker that has finished by then has
// left its result on the row through the callback. No client can ask for
// the job sooner: the id is not on the wire yet.
func (s *Server) invokeAsync(w http.ResponseWriter, req InvokeRequest, args []byte) {
	j := new(asyncJob)
	jobID, _ := s.submit(req.Key, req.Function, args, func(res core.Result) { s.recordAsync(j, res) })
	if jobID == 0 {
		writeError(w, http.StatusServiceUnavailable, "gateway draining; not accepting new invocations")
		return
	}
	s.mu.Lock()
	j.resp.JobID = jobID
	s.jobs[jobID] = j
	s.fileLocked(j, s.now().Sub(s.start))
	s.mu.Unlock()
	body := append(make([]byte, 0, 32), `{"job_id":`...)
	writeBody(w, http.StatusAccepted, append(strconv.AppendInt(body, jobID, 10), "}\n"...))
}

// recordAsync is the async completion callback: it leaves the result on
// the job's row, restarts the row's retention window and wakes the polls
// parked on it. A row not in the table only takes the result: either the
// submitting handler is about to file it, or it expired while pending (a
// job abandoned in a drain that finished after all) and nobody can ask.
func (s *Server) recordAsync(j *asyncJob, res core.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now().Sub(s.start)
	s.reapLocked(now)
	j.resp, j.completed = makeResponse(res), true
	if j.next == nil {
		return
	}
	s.fileLocked(j, now)
	if j.done != nil {
		close(j.done)
	}
}

// fileLocked starts j's retention window at now and moves the row to the
// back of the expiry list, linking it first if it is new. Caller holds s.mu.
func (s *Server) fileLocked(j *asyncJob, now time.Duration) {
	if j.next != nil {
		j.prev.next, j.next.prev = j.next, j.prev
	} else {
		s.unfetched.Add(1)
	}
	j.expiresAt = now + RetainAsync
	j.prev, j.next = s.expiry.prev, &s.expiry
	j.prev.next, s.expiry.prev = j, j
}

// dropLocked takes j's row out of the table and the expiry list: fetched,
// or expired. Caller holds s.mu.
func (s *Server) dropLocked(j *asyncJob) {
	delete(s.jobs, j.resp.JobID)
	j.prev.next, j.next.prev = j.next, j.prev
	j.prev, j.next = nil, nil
	s.unfetched.Add(-1)
}

// reapLocked drops the rows whose retention has passed: the expired head
// of the expiry list, so its cost is the number of rows that expired since
// the last call, not the size of the table. Caller holds s.mu.
func (s *Server) reapLocked(now time.Duration) {
	for j := s.expiry.next; j != &s.expiry && now > j.expiresAt; j = s.expiry.next {
		if j.completed {
			s.expiredDone.Inc()
		} else {
			s.expiredPending.Inc()
		}
		s.dropLocked(j)
	}
}

// liveJobLocked reaps, then looks the job's row up; nil when there is none
// (never filed, fetched, or expired). Caller holds s.mu.
func (s *Server) liveJobLocked(id int64) *asyncJob {
	s.reapLocked(s.now().Sub(s.start))
	return s.jobs[id]
}

// park holds a poll on a pending job's done channel until the job
// completes, pollHold passes, or the client hangs up — false then: there is
// nobody to answer, and a result must not be spent on a closed connection.
func (s *Server) park(r *http.Request, done <-chan struct{}) bool {
	s.pollsParked.Add(1)
	defer s.pollsParked.Add(-1)
	hold := s.newTimer(pollHold)
	defer hold.Stop()
	select {
	case <-done:
	case <-hold.C:
	case <-r.Context().Done():
		return false
	}
	return true
}

// handleJobStatus serves GET /jobs/{id}: 200/422 with the result (handed
// over exactly once: the fetch drops the row), 202 for a job still pending
// after the poll has been parked on it for pollHold, 404 for unknown,
// expired or already-fetched jobs.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil || id <= 0 {
		writeError(w, http.StatusBadRequest, "bad job id")
		return
	}
	s.mu.Lock()
	j := s.liveJobLocked(id)
	if j != nil && !j.completed {
		if j.done == nil {
			j.done = make(chan struct{})
		}
		done := j.done
		s.mu.Unlock()
		if !s.park(r, done) {
			return
		}
		s.mu.Lock()
		j = s.liveJobLocked(id)
	}
	fetched := j != nil && j.completed
	if fetched {
		s.dropLocked(j) // done → gone: the row, and its result, are this handler's alone now
	}
	s.mu.Unlock()
	switch {
	case fetched:
		writeJSON(w, j.resp.status(), &j.resp)
	case j != nil:
		writeBody(w, http.StatusAccepted, pendingBody)
	default:
		writeError(w, http.StatusNotFound, "unknown, expired, or already-fetched job")
	}
}

func (s *Server) handleFunctions(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, workload.Names())
}

// WorkerInfo is one row of the GET /workers reply: a worker's health,
// its breaker state by name, and the shard that owns it.
type WorkerInfo struct {
	core.WorkerHealth
	Breaker string `json:"breaker"`
	Shard   string `json:"shard"`
}

func (s *Server) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	out := []WorkerInfo{} // stable shape: [] even with nothing to report
	for _, sh := range s.shards {
		for _, h := range sh.orch.Health() {
			out = append(out, WorkerInfo{WorkerHealth: h, Breaker: h.State.String(), Shard: sh.label})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleShards serves GET /shards: every shard's capacity snapshot —
// worker count, pending and queued depth, ring weight, and steal
// counters — in ring order.
func (s *Server) handleShards(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.plane.Status())
}

// shardPower is one shard's power snapshot inside the /power and
// /power/cap replies.
type shardPower struct {
	Shard    string          `json:"shard"`
	Snapshot powermgr.Status `json:"snapshot"`
}

// handlePower serves GET /power: each powered shard's power-manager
// snapshot — per-node states, the active cap, and cap-parked wakes — as an
// array in shard order.
func (s *Server) handlePower(w http.ResponseWriter, _ *http.Request) {
	out := make([]shardPower, len(s.powered))
	for i, sh := range s.powered {
		out[i] = shardPower{Shard: sh.label, Snapshot: sh.orch.PowerManager().Snapshot()}
	}
	writeJSON(w, http.StatusOK, out)
}

// handlePowerCap serves POST /power/cap with a PowerCapRequest: it adjusts
// the cluster power budget at runtime (0 removes the cap) and returns the
// resulting snapshots, shaped like GET /power. The budget is divided
// evenly across the shards that run a power manager (each shard caps its
// own partition; a plane of one gets all of it). Lowering the cap
// never force-kills powered nodes; the cluster converges downward as they
// idle out.
func (s *Server) handlePowerCap(w http.ResponseWriter, r *http.Request) {
	var req PowerCapRequest
	if !decodeBody(w, r, &req) {
		return
	}
	for _, sh := range s.powered {
		if err := sh.orch.PowerManager().SetCapW(power.Watts(req.CapW / float64(len(s.powered)))); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	s.handlePower(w, r)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
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

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"microfaas"
	"microfaas/internal/core"
	"microfaas/internal/node"
	"microfaas/internal/proto"
	"microfaas/internal/wire"
	"microfaas/internal/workload"
)

// The ladder: one goroutine, a fixed operation count per rung, each rung
// adding one layer to the one below, so subtracting neighbours gives a
// layer's own cost. Every rung calls only public functions of the layer it
// measures.

// nullWorker is a core.Worker that settles every job at once, inside
// RunJob. Real workers must not do that (the interface forbids a
// synchronous done); the ladder may, because it keeps one job in flight,
// and it is what makes a submit→settle over this worker the orchestrator's
// own cost with no goroutine hand-off in it.
type nullWorker struct{ id string }

func (w nullWorker) ID() string { return w.id }
func (w nullWorker) RunJob(job core.Job, done func(core.Result)) {
	done(core.Result{Job: job, WorkerID: w.id})
}

// nullOrchestrator builds a wall-clock orchestrator over n null workers.
func nullOrchestrator(n int, idBase int64, label string) (*core.Orchestrator, error) {
	workers := make([]core.Worker, n)
	for i := range workers {
		workers[i] = nullWorker{id: fmt.Sprintf("%snull-%d", label, i)}
	}
	return core.New(core.Config{Runtime: core.NewWallRuntime(), Workers: workers, Seed: 1, JobIDBase: idBase, ShardLabel: label})
}

// ladderSizes is how much work each rung does. scale 1 is the benchmark's
// own size; tests shrink it.
type ladderSizes struct {
	reps  int
	scale float64
}

func (z ladderSizes) ops(n int) int {
	if s := int(float64(n) * z.scale); s > 0 {
		return s
	}
	return 1
}

// ladderResult maps a per-layer metric name to its summary over the reps.
type ladderResult map[string]metricValue

// timeOps runs op ops times per rep and records the time and allocations
// per operation under timeName (in unit "us" or "ns") and, when allocName
// is set, allocations per operation under it.
func (res ladderResult) timeOps(z ladderSizes, timeName, unit, allocName string, ops int, op func() error) error {
	ops = z.ops(ops)
	var times, allocs []float64
	for rep := 0; rep < z.reps; rep++ {
		m0, start := readMem(), time.Now()
		for i := 0; i < ops; i++ {
			if err := op(); err != nil {
				return fmt.Errorf("%s: %w", timeName, err)
			}
		}
		d := time.Since(start)
		per := float64(d) / float64(ops)
		if unit == "us" {
			per /= 1e3
		}
		times = append(times, per)
		allocs = append(allocs, float64(readMem().mallocs-m0.mallocs)/float64(ops))
	}
	res[timeName] = newMetric(unit, times)
	if allocName != "" {
		res[allocName] = newMetric("count", allocs)
	}
	return nil
}

var floorArgs = []byte(`{"rounds":1,"seed":"ladder"}`)

// runLadder measures every rung. suite is the seeded Table-I request pool
// the workload rung replays.
func runLadder(z ladderSizes, suite []request) (ladderResult, error) {
	res := ladderResult{}

	// wire: one frame encoded and decoded through a buffer.
	{
		var buf bytes.Buffer
		var scratch []byte
		in := proto.Request{RID: 1, JobID: 1, Function: floorFunction, Args: floorArgs}
		if err := res.timeOps(z, "wire.frame_us", "us", "wire.allocs_per_frame", 50000, func() error {
			buf.Reset()
			if err := wire.WriteJSON(&buf, in); err != nil {
				return err
			}
			var out proto.Request
			return wire.ReadJSONInto(&buf, &out, &scratch)
		}); err != nil {
			return nil, err
		}
	}

	// proto: a request and its response over a loopback connection, the
	// serving side answering without doing any work.
	{
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		served := make(chan error, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				served <- err
				return
			}
			defer conn.Close()
			served <- proto.ServeLoop(conn, func(proto.Request) proto.Response { return proto.Response{} })
		}()
		pc := proto.NewConn(ln.Addr().String())
		err = res.timeOps(z, "proto.roundtrip_us", "us", "proto.allocs_per_roundtrip", 10000, func() error {
			_, err := pc.Invoke(proto.Request{JobID: 1, Function: floorFunction, Args: floorArgs}, 10*time.Second)
			return err
		})
		pc.Close()
		ln.Close() //nolint:errcheck // a listener we own
		if serr := <-served; err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
	}

	// A one-worker live cluster supplies the backing services for the
	// workload rungs and the real worker for core.live_settle_us.
	live, err := microfaas.StartLiveCluster(microfaas.LiveOptions{Workers: 1, Seed: 1})
	if err != nil {
		return nil, err
	}
	defer live.Close()

	// workload: the functions called directly.
	if err := res.timeOps(z, "workload.floor_invoke_us", "us", "", 50000, func() error {
		_, err := workload.Invoke(live.Env, floorFunction, floorArgs)
		return err
	}); err != nil {
		return nil, err
	}
	next := 0
	if err := res.timeOps(z, "workload.suite_invoke_us", "us", "", len(suite), func() error {
		r := suite[next%len(suite)]
		next++
		_, err := workload.Invoke(live.Env, r.function, r.args)
		return err
	}); err != nil {
		return nil, err
	}

	// node: a live worker's whole job cycle, RunJob to done.
	{
		w, err := node.StartLiveWorker(node.LiveWorkerConfig{ID: "ladder-node", Env: live.Env})
		if err != nil {
			return nil, err
		}
		done := make(chan core.Result, 1)
		err = res.timeOps(z, "node.runjob_us", "us", "", 10000, func() error {
			w.RunJob(core.Job{ID: 1, Function: floorFunction, Args: floorArgs}, func(r core.Result) { done <- r })
			if r := <-done; r.Err != "" {
				return fmt.Errorf("job failed: %s", r.Err)
			}
			return nil
		})
		w.Close() //nolint:errcheck // a worker we own
		if err != nil {
			return nil, err
		}
	}

	// core: submit→callback over null workers, then what each settled job
	// leaves on the heap, then the same over one real worker.
	{
		o, err := nullOrchestrator(4, 0, "")
		if err != nil {
			return nil, err
		}
		settled := false
		cb := func(core.Result) { settled = true }
		submit := func() error {
			settled = false
			if o.SubmitAsync(floorFunction, floorArgs, cb) == 0 || !settled {
				return fmt.Errorf("null worker did not settle the job inside submit")
			}
			return nil
		}
		if err := res.timeOps(z, "core.null_settle_us", "us", "core.null_allocs", 50000, submit); err != nil {
			return nil, err
		}
		var retained []float64
		jobs := z.ops(20000)
		for rep := 0; rep < z.reps; rep++ {
			before := liveHeap()
			for i := 0; i < jobs; i++ {
				if err := submit(); err != nil {
					return nil, err
				}
			}
			retained = append(retained, (float64(liveHeap())-float64(before))/float64(jobs))
		}
		res["core.retained_b_per_job"] = newMetric("B", retained)
		runtime.KeepAlive(o)

		done := make(chan core.Result, 1)
		if err := res.timeOps(z, "core.live_settle_us", "us", "", 10000, func() error {
			live.Orch.SubmitAsync(floorFunction, floorArgs, func(r core.Result) { done <- r })
			if r := <-done; r.Err != "" {
				return fmt.Errorf("job failed: %s", r.Err)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// shard: the ring lookup alone, then a submit routed through a plane of
	// four null-worker orchestrators.
	{
		var shards []*microfaas.Orchestrator
		for i := 0; i < 4; i++ {
			o, err := nullOrchestrator(1, int64(i)<<40, fmt.Sprintf("shard-%02d", i))
			if err != nil {
				return nil, err
			}
			shards = append(shards, o)
		}
		plane, err := microfaas.NewShardPlane(core.NewWallRuntime(), shards, microfaas.ShardPlaneConfig{})
		if err != nil {
			return nil, err
		}
		defer plane.Close()
		keys := make([]string, 1024)
		for i := range keys {
			keys[i] = "u/" + strconv.Itoa(i)
		}
		i := 0
		if err := res.timeOps(z, "shard.ring_lookup_ns", "ns", "", 500000, func() error {
			sinkInt = plane.ShardFor(keys[i&1023])
			i++
			return nil
		}); err != nil {
			return nil, err
		}
		settled := false
		cb := func(core.Result) { settled = true }
		if err := res.timeOps(z, "shard.null_settle_us", "us", "", 50000, func() error {
			settled = false
			id, _ := plane.Submit(keys[i&1023], floorFunction, floorArgs, cb)
			i++
			if id == 0 || !settled {
				return fmt.Errorf("null worker did not settle the job inside submit")
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// gateway: the handler called directly, the same through a real
	// listener and one connection, then the async pair.
	body := newRequest(floorFunction, floorArgs).body
	newGateway := func() (*microfaas.Gateway, error) {
		o, err := nullOrchestrator(4, 0, "")
		if err != nil {
			return nil, err
		}
		return microfaas.NewGateway(o, microfaas.GatewayOptions{})
	}
	serve := func(h http.Handler, method, target string, body []byte, want int) (*httptest.ResponseRecorder, error) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, target, bytes.NewReader(body)))
		if rr.Code != want {
			return rr, fmt.Errorf("%s %s answered %d: %s", method, target, rr.Code, rr.Body)
		}
		return rr, nil
	}
	{
		gw, err := newGateway()
		if err != nil {
			return nil, err
		}
		h := gw.Handler()
		if err := res.timeOps(z, "gateway.handler_us", "us", "gateway.handler_allocs", 20000, func() error {
			_, err := serve(h, http.MethodPost, "/invoke", body, http.StatusOK)
			return err
		}); err != nil {
			return nil, err
		}
		addr, err := gw.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		c := newClient([]request{{body: body}}, 0)
		c.base = "http://" + addr
		err = res.timeOps(z, "gateway.socket_us", "us", "", 10000, func() error {
			c.lat = c.lat[:0]
			if _, ok := c.invokeSync(c.reqs[0], false); !ok {
				return fmt.Errorf("invoke failed: %s", c.buf.String())
			}
			return nil
		})
		c.http.CloseIdleConnections()
		gw.Close() //nolint:errcheck // a listener we own
		if err != nil {
			return nil, err
		}
	}
	{
		// Fresh server per rep: async bookkeeping grows with every job the
		// server has ever settled, which is exactly what the third number
		// shows — submit again once 10,000 jobs have settled.
		var submitUS, pollUS, at10kUS []float64
		settledBefore := z.ops(10000)
		for rep := 0; rep < z.reps; rep++ {
			gw, err := newGateway()
			if err != nil {
				return nil, err
			}
			h := gw.Handler()
			roundTrips := func(n int) (submit, poll time.Duration, err error) {
				for i := 0; i < n; i++ {
					t0 := time.Now()
					rr, err := serve(h, http.MethodPost, "/invoke?async=1", body, http.StatusAccepted)
					if err != nil {
						return 0, 0, err
					}
					t1 := time.Now()
					var accepted reply
					if err := json.Unmarshal(rr.Body.Bytes(), &accepted); err != nil {
						return 0, 0, err
					}
					target := "/jobs/" + strconv.FormatInt(accepted.JobID, 10)
					t2 := time.Now()
					if _, err := serve(h, http.MethodGet, target, nil, http.StatusOK); err != nil {
						return 0, 0, err
					}
					submit += t1.Sub(t0)
					poll += time.Since(t2)
				}
				return submit, poll, nil
			}
			first := z.ops(1000)
			s, p, err := roundTrips(first)
			if err != nil {
				return nil, err
			}
			submitUS = append(submitUS, us(s)/float64(first))
			pollUS = append(pollUS, us(p)/float64(first))
			if _, _, err := roundTrips(settledBefore - first); err != nil {
				return nil, err
			}
			s, _, err = roundTrips(first)
			if err != nil {
				return nil, err
			}
			at10kUS = append(at10kUS, us(s)/float64(first))
		}
		res["gateway.async_submit_us"] = newMetric("us", submitUS)
		res["gateway.async_poll_us"] = newMetric("us", pollUS)
		res["gateway.async_submit_us_at10k"] = newMetric("us", at10kUS)
	}
	return res, nil
}

// sinkInt defeats dead-code elimination of measured calls that return ints.
var sinkInt int

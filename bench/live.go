package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"microfaas"
	"microfaas/internal/tsdb"
	"microfaas/internal/workload"
)

// sloRules is a frozen copy of examples/slo/rules.json, the rule file the
// repository ships: the benchmark's inputs must not move when an example
// is edited.
//
//go:embed slo_rules.json
var sloRules []byte

// liveKind selects which system a live workload assembles and how its
// clients call it.
type liveKind struct {
	name string
	// production turns on what microfaas-live runs with in serve mode:
	// telemetry, a 1%-sampling tracer, the power meter, and a tsdb store
	// with the shipped SLO rules scraped every scrapeEvery.
	production bool
	async      bool
	gen        func(seed int64, n int) []request
}

var liveKinds = []liveKind{
	{name: "live_floor", gen: genFloor},
	{name: "live_suite", production: true, gen: genSuite},
	{name: "live_async", async: true, gen: genFloor},
}

const (
	liveWorkers = 4
	scrapeEvery = 250 * time.Millisecond
	// poolPerClient is how many distinct pre-generated requests each client
	// has: 24 of each Table-I function on live_suite, more than a client
	// sends in one trial, so no stored object is ever written twice and what
	// the stores retain per request does not depend on how far a trial got.
	poolPerClient = 408
	// setupRepeats is how many times a trial assembles the system and times
	// it up to the first reply: set-up takes ~12 ms, so one sample per trial
	// is mostly scheduler noise. The last assembly is the one measured on.
	setupRepeats = 3
)

// liveSystem is one freshly assembled system under test, reachable only
// through its loopback socket (and, for per-layer timing, the public
// functions of the pieces the benchmark holds).
type liveSystem struct {
	cluster *microfaas.LiveCluster
	gateway *microfaas.Gateway
	url     string
	store   *tsdb.Store // nil unless production

	scrapeStop chan struct{}
	scrapeDone chan struct{}
	scrapeMu   sync.Mutex
	scrapes    []time.Duration
	scrapeRec  *spanRecorder // nil unless traced
}

// startLive assembles a system from the public constructors and binds its
// gateway to a loopback port.
func startLive(k liveKind, seed int64) (*liveSystem, error) {
	opts := microfaas.LiveOptions{Workers: liveWorkers, Seed: seed}
	gopts := microfaas.GatewayOptions{Mode: "live"}
	s := &liveSystem{}
	if k.production {
		opts.Meter = true
		opts.Telemetry = microfaas.NewTelemetry()
		opts.Tracer = microfaas.NewTracerWithConfig(microfaas.TracerConfig{
			Seed: seed, SampleRate: 0.01, SlowThreshold: 30 * time.Second,
		})
		rules, err := tsdb.ParseRules(sloRules)
		if err != nil {
			return nil, err
		}
		s.store = tsdb.New(tsdb.Config{Tracer: opts.Tracer})
		if err := s.store.SetRules(rules); err != nil {
			return nil, err
		}
		s.store.AddSource("", opts.Telemetry.Registry())
		gopts.Telemetry, gopts.Tracer, gopts.TSDB = opts.Telemetry, opts.Tracer, s.store
	}
	l, err := microfaas.StartLiveCluster(opts)
	if err != nil {
		return nil, err
	}
	s.cluster = l
	if s.gateway, err = microfaas.NewGateway(l.Orch, gopts); err != nil {
		s.close()
		return nil, err
	}
	addr, err := s.gateway.Listen("127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = "http://" + addr
	return s, nil
}

// startScraper runs the benchmark's own scrape ticker, timing every
// Store.Scrape (and recording a span around it on the traced trial).
func (s *liveSystem) startScraper() {
	if s.store == nil {
		return
	}
	s.scrapeStop, s.scrapeDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.scrapeDone)
		t := time.NewTicker(scrapeEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				start := time.Now()
				s.store.Scrape(s.cluster.Runtime.Now())
				d := time.Since(start)
				s.scrapeMu.Lock()
				s.scrapes = append(s.scrapes, d)
				if s.scrapeRec != nil {
					at := start.Sub(s.scrapeRec.epoch)
					s.scrapeRec.add("tsdb.scrape", 0, 0, at, at+d)
				}
				s.scrapeMu.Unlock()
			case <-s.scrapeStop:
				return
			}
		}
	}()
}

// resetScrapes drops scrape timings taken so far (the warm-up's).
func (s *liveSystem) resetScrapes() {
	s.scrapeMu.Lock()
	s.scrapes = s.scrapes[:0]
	s.scrapeMu.Unlock()
}

func (s *liveSystem) stopScraper() {
	if s.scrapeStop != nil {
		close(s.scrapeStop)
		<-s.scrapeDone
		s.scrapeStop = nil
	}
}

// close stops the scraper, the listener and the cluster, in that order.
func (s *liveSystem) close() {
	s.stopScraper()
	if s.gateway != nil {
		s.gateway.Close() //nolint:errcheck // closing a listener we own
	}
	s.cluster.Close()
}

// runLiveTrial builds a fresh system, so state that grows with traffic
// (the record collector, the async maps) starts from zero in every trial
// and is part of what the trial measures. With traceTo set the generator
// decodes every reply, records spans, and writes them there at the end.
func runLiveTrial(k liveKind, seed int64, warm, win time.Duration, traceTo string) (trialReport, error) {
	t := trialReport{Workload: k.name, Correct: true, CalibMS: ms(calibrate())}
	clients := make([]*client, numClients)
	for i := range clients {
		// Request bodies are generated here, before anything is timed. The
		// latency storage has headroom for 15k completions/s per client;
		// beyond that append grows it and the growth shows as retained heap.
		clients[i] = newClient(k.gen(seed*1000+int64(i), poolPerClient), int(15000*(win.Seconds()+1)))
	}
	defer func() {
		for _, c := range clients {
			c.http.CloseIdleConnections()
		}
	}()
	runtime.GC() // generating the requests is not set-up cost

	var sys *liveSystem
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if sys != nil {
			clients[0].http.CloseIdleConnections()
			sys.close()
		}
		begin := time.Now()
		var err error
		if sys, err = startLive(k, seed); err != nil {
			return t, err
		}
		clients[0].base = sys.url
		t.Attempted++
		if _, ok := clients[0].invokeSync(clients[0].reqs[0], false); !ok {
			sys.close()
			return t, fmt.Errorf("%s: first invocation failed: %s", k.name, clients[0].buf.String())
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	defer sys.close()
	t.SetupS = summarize(setups).Median
	for _, c := range clients {
		c.base = sys.url
	}

	// Output check, before any timing: every CPU function this workload
	// uses goes through the socket once and must return, byte for byte,
	// what calling the function directly on the same args returns.
	checked := map[string]bool{}
	for _, r := range clients[0].reqs {
		if checked[r.function] || !cpuFunction[r.function] {
			continue
		}
		checked[r.function] = true
		rep, ok := clients[0].invokeSync(r, true)
		want, err := workload.Invoke(sys.cluster.Env, r.function, r.args)
		t.Attempted++
		if !ok || err != nil || !bytes.Equal(rep.Output, want) {
			t.Failed++
			t.Correct = false
			t.Notes = append(t.Notes, fmt.Sprintf("%s through the socket returned %q, called directly %q (%v)", r.function, rep.Output, want, err))
		}
	}

	sys.startScraper()
	runLoad(clients, k.async, warm)
	w := collect(clients)
	t.Attempted += w.attempted
	t.Failed += w.failed
	sys.resetScrapes()

	var recorders []*spanRecorder
	if traceTo != "" {
		epoch := time.Now()
		for i, c := range clients {
			c.rec = newSpanRecorder(i+1, epoch, cap(c.lat)*3)
			recorders = append(recorders, c.rec)
		}
		if sys.store != nil {
			sys.scrapeMu.Lock()
			sys.scrapeRec = newSpanRecorder(numClients+1, epoch, 1024)
			sys.scrapeMu.Unlock()
			recorders = append(recorders, sys.scrapeRec)
		}
	}
	heap0 := liveHeap()
	win0 := runLoad(clients, k.async, win)
	sys.stopScraper()
	t.RetainedB = float64(liveHeap()) - float64(heap0)
	obs := collect(clients)
	t.window(win0)
	t.Attempted += obs.attempted
	t.Failed += obs.failed
	t.Completed = len(obs.lat)
	t.Polls = obs.polls
	v50, _ := percentile(obs.lat, 50)
	v99, beyond := percentile(obs.lat, 99)
	t.P50MS, t.P99MS, t.P99Beyond = ms(v50), ms(v99), beyond

	if sys.store != nil {
		now := sys.cluster.Runtime.Now()
		allocs := allocsOf(func() { sys.store.Scrape(now) })
		start := time.Now()
		rr := httptest.NewRecorder()
		sys.gateway.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		render := time.Since(start)
		if rr.Code != http.StatusOK {
			return t, fmt.Errorf("%s: /metrics answered %d", k.name, rr.Code)
		}
		t.observability(sys.scrapes, allocs, sys.store.SeriesCount(), render)
	}
	if traceTo != "" {
		gw, core, node := selfTimes(recorders)
		t.GatewaySelfUS, t.CoreSelfUS, t.NodeCycleUS = medianDurUS(gw), medianDurUS(core), medianDurUS(node)
		t.Spans = len(gw) + len(core) + len(node)
		if err := writeTrace(traceTo, k.name, recorders); err != nil {
			return t, err
		}
	}
	return t, nil
}

// cpuFunction marks the Table-I functions that touch no backing service,
// whose outputs are therefore a pure function of their args.
var cpuFunction = func() map[string]bool {
	m := map[string]bool{}
	for _, spec := range microfaas.FunctionSpecs() {
		if spec.Service == "" {
			m[spec.Name] = true
		}
	}
	return m
}()

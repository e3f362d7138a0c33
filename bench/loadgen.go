package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"microfaas"
)

// numClients is the closed-loop client count: eight sync invokers, each on
// its own keep-alive connection. Closed loop because the callers modelled
// wait for a reply before sending the next request. Eight, because that
// keeps both cores of the 2-core reference box busy: with two clients the
// path is bound by cross-thread wake-up latency, which on a shared VM moved
// throughput by 14% and the p99 by 23% between identical runs, against 2%
// and 5% once the processors are saturated.
const numClients = 8

// request is one pre-generated invocation: the function and args (kept for
// the output check) and the POST /invoke body built from them.
type request struct {
	function string
	args     []byte
	body     []byte
}

func newRequest(function string, args []byte) request {
	body, err := json.Marshal(struct {
		Function string          `json:"function"`
		Args     json.RawMessage `json:"args"`
	}{function, args})
	if err != nil {
		panic("bench: marshal request: " + err.Error()) // args are valid JSON by construction
	}
	return request{function: function, args: args, body: body}
}

// floorFunction is the function whose execution costs nothing next to the
// platform path: one SHA-256 round.
const floorFunction = "CascSHA"

// genFloor returns n floor requests; the seed only varies the hashed text.
func genFloor(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]request, n)
	for i := range out {
		out[i] = newRequest(floorFunction, []byte(fmt.Sprintf(`{"rounds":1,"seed":"%08x"}`, rng.Uint32())))
	}
	return out
}

// genSuite returns n requests of the Table-I mix: every function in turn
// with seeded GenArgs, then a seeded shuffle, so all 17 appear in equal
// shares whatever the seed.
func genSuite(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	fns := microfaas.Functions()
	out := make([]request, n)
	for i := range out {
		f := fns[i%len(fns)]
		out[i] = newRequest(f.Name, f.GenArgs(rng))
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// reply is the part of a gateway reply the generator reads.
type reply struct {
	JobID          int64           `json:"job_id"`
	Output         json.RawMessage `json:"output"`
	Error          string          `json:"error"`
	TotalMs        float64         `json:"total_ms"`
	TotalLatencyMs float64         `json:"total_latency_ms"`
}

// client is one closed-loop caller with its own connection. Its latency
// storage is allocated once, before any heap snapshot, so the generator
// does not show up as retained heap.
type client struct {
	http *http.Client
	base string
	reqs []request
	next int
	buf  bytes.Buffer
	rec  *spanRecorder // nil unless this is the traced trial

	lat                      []time.Duration
	attempted, failed, polls int
}

func newClient(reqs []request, latCap int) *client {
	return &client{
		// One connection per client: MaxConnsPerHost pins it, keep-alive
		// reuses it for every request. The timeout turns a wedged system
		// into counted failures instead of a hung benchmark.
		http: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   time.Minute,
		},
		reqs: reqs,
		lat:  make([]time.Duration, 0, latCap),
	}
}

// do sends one request and reads the whole reply into c.buf.
func (c *client) do(method, path string, body []byte) (status int, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// invokeSync performs one POST /invoke. Anything but a 200 is a failure
// (the gateway answers 422 when the result carries an error). The reply is
// decoded only when tracing or when the caller wants it.
func (c *client) invokeSync(r request, decode bool) (reply, bool) {
	var rep reply
	sent := time.Now()
	status, err := c.do(http.MethodPost, "/invoke", r.body)
	d := time.Since(sent)
	c.attempted++
	if err != nil || status != http.StatusOK {
		c.failed++
		return rep, false
	}
	return rep, c.settle(&rep, sent, d, decode)
}

// settle files a 200 reply: its latency and, on the traced trial, its
// spans. The body is decoded only when asked or tracing, and a decoded
// reply that carries an error is a failure after all.
func (c *client) settle(rep *reply, sent time.Time, d time.Duration, decode bool) bool {
	if decode || c.rec != nil {
		if err := json.Unmarshal(c.buf.Bytes(), rep); err != nil || rep.Error != "" {
			c.failed++
			return false
		}
	}
	c.lat = append(c.lat, d)
	if c.rec != nil {
		c.rec.request(rep.JobID, sent, d, msDur(rep.TotalLatencyMs), msDur(rep.TotalMs))
	}
	return true
}

// invokeAsync submits with ?async=1 and polls GET /jobs/{id} until the
// result is served. The job counts, and its latency ends, when the result
// is fetched.
func (c *client) invokeAsync(r request) (reply, bool) {
	var rep reply
	sent := time.Now()
	c.attempted++
	status, err := c.do(http.MethodPost, "/invoke?async=1", r.body)
	if err != nil || status != http.StatusAccepted || json.Unmarshal(c.buf.Bytes(), &rep) != nil || rep.JobID == 0 {
		c.failed++
		return rep, false
	}
	path := "/jobs/" + strconv.FormatInt(rep.JobID, 10)
	for {
		c.polls++
		status, err = c.do(http.MethodGet, path, nil)
		if err == nil && status == http.StatusAccepted {
			continue // still pending
		}
		break
	}
	d := time.Since(sent)
	if err != nil || status != http.StatusOK {
		c.failed++
		return rep, false
	}
	return rep, c.settle(&rep, sent, d, true)
}

func msDur(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// window is what the process spent over one timed stretch of work.
type window struct {
	elapsed, cpu time.Duration
	mem          memCounters // deltas over the window
}

// windowStart is the process's state when a timed stretch began.
type windowStart struct {
	mem  memCounters
	cpu  time.Duration
	wall time.Time
}

func startWindow() windowStart {
	return windowStart{mem: readMem(), cpu: cpuTime(), wall: time.Now()}
}

// stop reads the clocks first, then the allocation counters.
func (s windowStart) stop() window {
	w := window{elapsed: time.Since(s.wall), cpu: cpuTime() - s.cpu}
	m := readMem()
	w.mem = memCounters{mallocs: m.mallocs - s.mem.mallocs, bytes: m.bytes - s.mem.bytes, gcs: m.gcs - s.mem.gcs}
	return w
}

// runLoad drives every client in a closed loop for d. A request in flight
// at the deadline is finished and counted, and elapsed runs until the last
// client returns. Clients keep what they saw; collect merges it, after the
// caller has taken its heap snapshot, so the merge is not counted as
// retained heap.
func runLoad(clients []*client, async bool, d time.Duration) window {
	for _, c := range clients {
		c.lat = c.lat[:0]
		c.attempted, c.failed, c.polls = 0, 0, 0
	}
	var wg sync.WaitGroup
	start := startWindow()
	deadline := start.wall.Add(d)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := c.reqs[c.next%len(c.reqs)]
				c.next++
				if async {
					c.invokeAsync(r)
				} else {
					c.invokeSync(r, false)
				}
			}
		}(c)
	}
	wg.Wait()
	return start.stop()
}

// observed is the clients' merged view of one window.
type observed struct {
	attempted, failed, polls int
	lat                      []time.Duration // ascending; one per completed invocation
}

func collect(clients []*client) observed {
	var o observed
	for _, c := range clients {
		o.attempted += c.attempted
		o.failed += c.failed
		o.polls += c.polls
		o.lat = append(o.lat, c.lat...)
	}
	sort.Slice(o.lat, func(i, j int) bool { return o.lat[i] < o.lat[j] })
	return o
}

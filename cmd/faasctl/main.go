// Command faasctl is the client CLI for a MicroFaaS gateway (see
// cmd/microfaas-live).
//
// Usage:
//
//	faasctl [-gateway host:port] functions
//	faasctl [-gateway host:port] workers [-v]
//	faasctl [-gateway host:port] stats
//	faasctl [-gateway host:port] shards
//	faasctl [-gateway host:port] shards drain <shard>
//	faasctl [-gateway host:port] shards join <shard>
//	faasctl [-gateway host:port] invoke <function> [args-json]
//	faasctl [-gateway host:port] -async invoke <function> [args-json]
//	faasctl [-gateway host:port] job <id>
//	faasctl [-gateway host:port] trace <job-id>
//	faasctl [-gateway host:port] trace --slowest <n>
//	faasctl [-gateway host:port] top [-interval 2s] [-iterations 0] [-once] [-json]
//	faasctl [-gateway host:port] watch [-interval 2s] [-once] <metric> [op]
//	faasctl [-gateway host:port] slo
//	faasctl [-gateway host:port] alerts
//	faasctl [-gateway host:port] power
//	faasctl [-gateway host:port] power cap <watts>
//	faasctl [-gateway host:port] forecast
//
// On a live gateway, stats reports completed/errors as lifetime totals
// and its per-function table over the retained window of recent records.
//
// job <id> collects an async invocation's result: the gateway holds the
// request up to a second for a job still running and answers the moment it
// finishes, so one call usually returns the result; it prints
// {"status":"pending"} when the job outlasts the hold (ask again), and a
// result is handed over once — a second job <id> is 404.
//
// A gateway fronts the whole control plane and merges every shard, so
// faasctl talks to one. Any reply other than 2xx is printed and exits 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"time"
)

func main() {
	gatewayAddr := flag.String("gateway", "127.0.0.1:8080", "gateway address (host:port)")
	timeout := flag.Duration("timeout", 5*time.Minute, "invocation timeout")
	async := flag.Bool("async", false, "submit invocations asynchronously (collect the result with 'job <id>', which waits up to a second for it)")
	interval := flag.Duration("interval", 2*time.Second, "top/watch: refresh interval")
	iterations := flag.Int("iterations", 0, "top/watch: stop after N refreshes (0 = until interrupted)")
	once := flag.Bool("once", false, "top/watch: render a single frame and exit (same as -iterations 1)")
	jsonOut := flag.Bool("json", false, "top: emit one JSON object per frame instead of the table")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] functions|workers|stats|shards|top|watch|slo|alerts|power|forecast|trace|job <id>|invoke <function> [args-json]\n", os.Args[0])
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	iters := *iterations
	if *once {
		iters = 1
	}
	c := &client{base: "http://" + *gatewayAddr, http: &http.Client{Timeout: *timeout}, out: os.Stdout,
		async: *async, interval: *interval, iterations: iters, jsonOut: *jsonOut}
	if err := c.run(flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "faasctl:", err)
		os.Exit(1)
	}
}

type client struct {
	base       string // the gateway's base URL
	http       *http.Client
	out        io.Writer
	async      bool
	interval   time.Duration
	iterations int
	jsonOut    bool
}

// observeFlags parses flags appearing after the top/watch subcommand
// (`faasctl top -once -json`), mirroring the global pre-command
// spellings so both positions work; the standard flag parser stops at
// the first positional, so flags and positionals are re-fed until both
// are consumed. Returns the positional operands.
func (c *client) observeFlags(name string, args []string) ([]string, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(c.out)
	interval := fs.Duration("interval", c.interval, "refresh interval")
	iterations := fs.Int("iterations", c.iterations, "stop after N refreshes (0 = until interrupted)")
	once := fs.Bool("once", false, "render a single frame and exit")
	jsonOut := fs.Bool("json", c.jsonOut, "emit one JSON object per frame")
	var pos []string
	for rest := args; len(rest) > 0; {
		if err := fs.Parse(rest); err != nil {
			return nil, err
		}
		rest = fs.Args()
		if len(rest) > 0 {
			pos = append(pos, rest[0])
			rest = rest[1:]
		}
	}
	c.interval = *interval
	c.iterations = *iterations
	if *once {
		c.iterations = 1
	}
	c.jsonOut = *jsonOut
	return pos, nil
}

// positiveOperand returns the one operand in args — a job id or a count —
// if it is a positive decimal integer, re-rendered so that nothing but
// digits reaches the request path.
func positiveOperand(args []string) (string, bool) {
	if len(args) != 1 {
		return "", false
	}
	n, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil || n <= 0 {
		return "", false
	}
	return strconv.FormatInt(n, 10), true
}

func (c *client) run(args []string) error {
	switch args[0] {
	case "functions":
		return c.show(http.MethodGet, "/functions", nil)
	case "workers":
		if len(args) >= 2 && args[1] == "-v" {
			return c.show(http.MethodGet, "/workers", nil)
		}
		return c.workersTable()
	case "stats":
		return c.show(http.MethodGet, "/stats", nil)
	case "shards":
		switch {
		case len(args) == 1:
			return c.shardsTable()
		case len(args) == 3 && (args[1] == "drain" || args[1] == "join"):
			return c.show(http.MethodPost, "/shards/"+args[2]+"/"+args[1], nil)
		default:
			return fmt.Errorf("usage: shards | shards drain <shard> | shards join <shard>")
		}
	case "top":
		rest, err := c.observeFlags("top", args[1:])
		if err != nil {
			return err
		}
		if len(rest) > 0 {
			return fmt.Errorf("top takes no arguments (got %q)", rest[0])
		}
		return c.top(c.interval, c.iterations)
	case "watch":
		rest, err := c.observeFlags("watch", args[1:])
		if err != nil {
			return err
		}
		return c.watch(rest, c.interval, c.iterations)
	case "slo":
		return c.sloTable()
	case "alerts":
		return c.alertsTable()
	case "power":
		switch {
		case len(args) == 1:
			return c.show(http.MethodGet, "/power", nil)
		case len(args) == 3 && args[1] == "cap":
			return c.powerCap(args[2])
		default:
			return fmt.Errorf("usage: power | power cap <watts>")
		}
	case "forecast":
		return c.forecastTable()
	case "invoke":
		if len(args) < 2 {
			return fmt.Errorf("invoke requires a function name")
		}
		payload := "{}"
		if len(args) >= 3 {
			payload = args[2]
		}
		return c.invoke(args[1], payload)
	case "job":
		id, ok := positiveOperand(args[1:])
		if !ok {
			return fmt.Errorf("usage: job <id>, a positive integer")
		}
		return c.show(http.MethodGet, "/jobs/"+id, nil)
	case "trace":
		return c.trace(args[1:])
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// traceSummary mirrors a job's breakdown in the gateway's /traces replies.
type traceSummary struct {
	Job            int64   `json:"job"`
	Function       string  `json:"function"`
	Worker         string  `json:"worker"`
	Attempts       int     `json:"attempts"`
	Error          string  `json:"error"`
	LatencyMs      float64 `json:"latency_ms"`
	UnattributedMs float64 `json:"unattributed_ms"`
	EnergyJ        float64 `json:"energy_j"`
	Phases         []struct {
		Phase      string  `json:"phase"`
		DurationMs float64 `json:"duration_ms"`
		EnergyJ    float64 `json:"energy_j"`
		Count      int     `json:"count"`
	} `json:"phases"`
}

// trace renders a phase-by-phase latency and energy breakdown for one
// job (`trace <job-id>`) or the N slowest jobs in the gateway's record
// window (`trace --slowest N`).
func (c *client) trace(args []string) error {
	slowest := len(args) == 2 && (args[0] == "--slowest" || args[0] == "-slowest")
	if slowest {
		args = args[1:]
	}
	n, ok := positiveOperand(args)
	if !ok {
		return fmt.Errorf("usage: trace <job-id> | trace --slowest <n>, each a positive integer")
	}
	var reply struct {
		Traces []traceSummary `json:"traces"`
	}
	if !slowest {
		var one traceSummary
		if err := c.getJSON("/traces/"+n, &one); err != nil {
			return err // a miss prints the gateway's "not in the record window"
		}
		reply.Traces = append(reply.Traces, one)
	} else if err := c.getJSON("/traces?slowest="+n, &reply); err != nil {
		return err
	}
	if len(reply.Traces) == 0 {
		return fmt.Errorf("no trace on record: the record window is empty")
	}
	for i, t := range reply.Traces {
		if i > 0 {
			fmt.Fprintln(c.out)
		}
		c.printTrace(t)
	}
	return nil
}

// printTrace writes one trace's breakdown table: per-phase duration and
// joules, then a total row that the phases (plus any unattributed gap)
// sum to.
func (c *client) printTrace(t traceSummary) {
	fmt.Fprintf(c.out, "job %d  %s", t.Job, t.Function)
	if t.Worker != "" {
		fmt.Fprintf(c.out, "  worker %s", t.Worker)
	}
	fmt.Fprintf(c.out, "  attempts %d", t.Attempts)
	if t.Error != "" {
		fmt.Fprintf(c.out, "  error %q", t.Error)
	}
	fmt.Fprintln(c.out)
	fmt.Fprintf(c.out, "  %-10s %12s %12s %6s\n", "phase", "duration", "energy", "spans")
	for _, p := range t.Phases {
		fmt.Fprintf(c.out, "  %-10s %12s %12s %6d\n",
			p.Phase, fmtMs(p.DurationMs), fmtJoules(p.EnergyJ), p.Count)
	}
	if t.UnattributedMs > 0 {
		fmt.Fprintf(c.out, "  %-10s %12s %12s\n", "(unattrib)", fmtMs(t.UnattributedMs), fmtJoules(0))
	}
	fmt.Fprintf(c.out, "  %-10s %12s %12s\n", "total", fmtMs(t.LatencyMs), fmtJoules(t.EnergyJ))
}

// fmtMs renders fractional milliseconds as a duration string.
func fmtMs(v float64) string {
	return time.Duration(v * float64(time.Millisecond)).Round(time.Microsecond).String()
}

// fmtJoules renders an energy value; sub-millijoule noise reads as 0.
func fmtJoules(v float64) string {
	return fmt.Sprintf("%.3f J", v)
}

// workerRow mirrors one /workers entry.
type workerRow struct {
	ID         string `json:"id"`
	Shard      string `json:"shard"`
	Breaker    string `json:"breaker"`
	Consec     int    `json:"consecutive_failures"`
	Completed  int64  `json:"completed"`
	Failed     int64  `json:"failed"`
	TimedOut   int64  `json:"timed_out"`
	QueueDepth int    `json:"queue_depth"`
	Busy       bool   `json:"busy"`
}

// workersTable renders /workers as a compact health table, one row per
// worker under its shard; `workers -v` prints the raw JSON instead.
func (c *client) workersTable() error {
	var workers []workerRow
	if err := c.getJSON("/workers", &workers); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%-10s %-12s %-9s %5s %9s %7s %9s %6s %5s\n",
		"shard", "worker", "breaker", "queue", "completed", "failed", "timed-out", "consec", "busy")
	for _, w := range workers {
		fmt.Fprintf(c.out, "%-10s %-12s %-9s %5d %9d %7d %9d %6d %5v\n",
			w.Shard, w.ID, w.Breaker, w.QueueDepth, w.Completed, w.Failed, w.TimedOut, w.Consec, w.Busy)
	}
	return nil
}

// shardsTable renders the /shards capacity snapshot — shard label,
// membership state and epoch, worker-partition size, pending and queued
// depth, ring weight, and steal counters — with a total row.
func (c *client) shardsTable() error {
	var rows []struct {
		Label     string  `json:"label"`
		Workers   int     `json:"workers"`
		Pending   int     `json:"pending"`
		Queued    int     `json:"queued"`
		Weight    float64 `json:"weight"`
		StolenIn  int64   `json:"stolen_in"`
		StolenOut int64   `json:"stolen_out"`
		State     string  `json:"state"`
		Epoch     int64   `json:"epoch"`
	}
	if err := c.getJSON("/shards", &rows); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%-10s %-8s %8s %8s %7s %7s %6s %10s %11s\n",
		"shard", "state", "workers", "pending", "queued", "weight", "epoch", "stolen-in", "stolen-out")
	var tw, tp, tq int
	var tin, tout int64
	for _, r := range rows {
		fmt.Fprintf(c.out, "%-10s %-8s %8d %8d %7d %7.2f %6d %10d %11d\n",
			r.Label, r.State, r.Workers, r.Pending, r.Queued, r.Weight, r.Epoch, r.StolenIn, r.StolenOut)
		tw += r.Workers
		tp += r.Pending
		tq += r.Queued
		tin += r.StolenIn
		tout += r.StolenOut
	}
	fmt.Fprintf(c.out, "%-10s %-8s %8d %8d %7d %7s %6s %10d %11d\n", "total", "", tw, tp, tq, "", "", tin, tout)
	return nil
}

// powerCap posts a new cluster power budget in watts (0 removes the cap)
// and prints the resulting snapshot. The whole operand must be a finite
// number.
func (c *client) powerCap(watts string) error {
	w, err := strconv.ParseFloat(watts, 64)
	if err != nil || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("power cap: %q is not a wattage", watts)
	}
	body, err := json.Marshal(map[string]float64{"cap_w": w})
	if err != nil {
		return err
	}
	return c.show(http.MethodPost, "/power/cap", body)
}

func (c *client) invoke(function, argsJSON string) error {
	if !json.Valid([]byte(argsJSON)) {
		return fmt.Errorf("arguments are not valid JSON: %s", argsJSON)
	}
	body, err := json.Marshal(map[string]json.RawMessage{
		"function": json.RawMessage(fmt.Sprintf("%q", function)),
		"args":     json.RawMessage(argsJSON),
	})
	if err != nil {
		return err
	}
	path := "/invoke"
	if c.async {
		path += "?async=1"
	}
	return c.show(http.MethodPost, path, body)
}

// call sends one request to the gateway and hands back a 2xx reply for
// the caller to read and close. Any other reply is printed and becomes the
// error, so every command exits nonzero on an HTTP error (a 202 pending
// poll is a 2xx, and a success).
func (c *client) call(method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer resp.Body.Close()
	if err := c.prettyPrint(resp.Body); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("gateway returned %s", resp.Status)
}

// show calls the gateway and prints the reply.
func (c *client) show(method, path string, body []byte) error {
	resp, err := c.call(method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return c.prettyPrint(resp.Body)
}

// getJSON GETs path and decodes the reply into v.
func (c *client) getJSON(path string, v any) error {
	resp, err := c.call(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// prettyPrint re-indents the gateway's JSON for terminal reading.
func (c *client) prettyPrint(r io.Reader) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, bytes.TrimSpace(raw), "", "  "); err != nil {
		// Not JSON (e.g. a plain error page): print as-is.
		fmt.Fprintln(c.out, string(raw))
		return nil
	}
	fmt.Fprintln(c.out, buf.String())
	return nil
}

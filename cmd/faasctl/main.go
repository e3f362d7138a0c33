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
// -gateway accepts a comma-separated address list; workers, top, and
// shards aggregate across every listed gateway (one dashboard over a
// multi-gateway sharded deployment), while the single-target commands
// (invoke, job, trace, stats, power) talk to the first address.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

func main() {
	gatewayAddr := flag.String("gateway", "127.0.0.1:8080", "gateway address, or a comma-separated list (workers/top/shards aggregate across all)")
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
	var bases []string
	for _, addr := range strings.Split(*gatewayAddr, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			bases = append(bases, "http://"+addr)
		}
	}
	if len(bases) == 0 {
		fmt.Fprintln(os.Stderr, "faasctl: no gateway address")
		os.Exit(2)
	}
	iters := *iterations
	if *once {
		iters = 1
	}
	c := &client{base: bases[0], bases: bases, http: &http.Client{Timeout: *timeout}, out: os.Stdout,
		async: *async, interval: *interval, iterations: iters, jsonOut: *jsonOut}
	if err := c.run(flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "faasctl:", err)
		os.Exit(1)
	}
}

type client struct {
	base       string   // primary gateway, for single-target commands
	bases      []string // every gateway; empty means just base
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

// allBases returns every configured gateway base URL; clients built
// with only base get a one-element list.
func (c *client) allBases() []string {
	if len(c.bases) > 0 {
		return c.bases
	}
	return []string{c.base}
}

func (c *client) run(args []string) error {
	switch args[0] {
	case "functions":
		return c.get("/functions")
	case "workers":
		if len(args) >= 2 && args[1] == "-v" {
			return c.get("/workers")
		}
		return c.workersTable()
	case "stats":
		return c.get("/stats")
	case "shards":
		switch {
		case len(args) == 1:
			return c.shardsTable()
		case len(args) == 3 && (args[1] == "drain" || args[1] == "join"):
			return c.shardOp(args[1], args[2])
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
			return c.get("/power")
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
		if len(args) < 2 {
			return fmt.Errorf("job requires an id")
		}
		return c.get("/jobs/" + args[1])
	case "trace":
		return c.trace(args[1:])
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// traceSummary mirrors the gateway's /traces reply shape.
type traceSummary struct {
	Trace          string  `json:"trace"`
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
// job's trace (`trace <job-id>`) or the N slowest traces on record
// (`trace --slowest N`).
func (c *client) trace(args []string) error {
	var path string
	switch {
	case len(args) >= 2 && (args[0] == "--slowest" || args[0] == "-slowest"):
		path = "/traces?slowest=" + args[1]
	case len(args) == 1:
		path = "/traces?job=" + args[0]
	default:
		return fmt.Errorf("usage: trace <job-id> | trace --slowest <n>")
	}
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c.prettyPrint(resp.Body)
	}
	var reply struct {
		Traces []traceSummary `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return err
	}
	if len(reply.Traces) == 0 {
		return fmt.Errorf("no trace on record (is tracing enabled, and was the job sampled?)")
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
	fmt.Fprintf(c.out, "trace %s  job %d  %s", t.Trace, t.Job, t.Function)
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

// workerRow mirrors one /workers entry (the shard label is empty on
// unsharded gateways).
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

// fetchWorkers concatenates /workers from every configured gateway.
func (c *client) fetchWorkers() ([]workerRow, error) {
	var all []workerRow
	for _, base := range c.allBases() {
		resp, err := c.http.Get(base + "/workers")
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return nil, fmt.Errorf("%s/workers returned %s: %s", base, resp.Status, bytes.TrimSpace(body))
		}
		var page []workerRow
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		all = append(all, page...)
	}
	return all, nil
}

// workersTable renders /workers — aggregated across every configured
// gateway — as a compact health table; `workers -v` prints the primary
// gateway's raw JSON instead.
func (c *client) workersTable() error {
	workers, err := c.fetchWorkers()
	if err != nil {
		return err
	}
	sharded := false
	for _, w := range workers {
		if w.Shard != "" {
			sharded = true
			break
		}
	}
	shardCol := ""
	if sharded {
		shardCol = fmt.Sprintf("%-10s ", "shard")
	}
	fmt.Fprintf(c.out, "%s%-12s %-9s %5s %9s %7s %9s %6s %5s\n",
		shardCol, "worker", "breaker", "queue", "completed", "failed", "timed-out", "consec", "busy")
	for _, w := range workers {
		if sharded {
			fmt.Fprintf(c.out, "%-10s ", w.Shard)
		}
		fmt.Fprintf(c.out, "%-12s %-9s %5d %9d %7d %9d %6d %5v\n",
			w.ID, w.Breaker, w.QueueDepth, w.Completed, w.Failed, w.TimedOut, w.Consec, w.Busy)
	}
	return nil
}

// shardsTable renders the /shards capacity snapshot — shard label,
// membership state and epoch, worker-partition size, pending and queued
// depth, ring weight, and steal counters — aggregated across every
// configured gateway. With several gateways listed, ones fronting an
// unsharded control plane are skipped and unreachable ones degrade to a
// warning line over the partial table; the command only fails outright
// when no gateway produced a row.
func (c *client) shardsTable() error {
	type shardRow struct {
		Index     int     `json:"index"`
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
	var rows []shardRow
	var warnings []string
	bases := c.allBases()
	degrade := func(err error) error {
		if len(bases) > 1 {
			warnings = append(warnings, "warning: "+err.Error())
			return nil
		}
		return err
	}
	for _, base := range bases {
		resp, err := c.http.Get(base + "/shards")
		if err != nil {
			if err = degrade(err); err != nil {
				return err
			}
			continue
		}
		if resp.StatusCode == http.StatusNotFound && len(bases) > 1 {
			resp.Body.Close()
			continue
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err = degrade(fmt.Errorf("%s/shards returned %s: %s", base, resp.Status, bytes.TrimSpace(body))); err != nil {
				return err
			}
			continue
		}
		var page []shardRow
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			if err = degrade(fmt.Errorf("%s/shards: %v", base, err)); err != nil {
				return err
			}
			continue
		}
		rows = append(rows, page...)
	}
	if len(rows) == 0 {
		if len(warnings) > 0 {
			return fmt.Errorf("every configured gateway failed:\n%s", strings.Join(warnings, "\n"))
		}
		return fmt.Errorf("no configured gateway fronts a sharded control plane")
	}
	for _, w := range warnings {
		fmt.Fprintln(c.out, w)
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

// shardOp posts one administrative membership operation — shards drain
// <shard> or shards join <shard>, by index or label — to the primary
// gateway and prints the shard's resulting status snapshot.
func (c *client) shardOp(op, id string) error {
	resp, err := c.http.Post(c.base+"/shards/"+id+"/"+op, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := c.prettyPrint(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("gateway returned %s", resp.Status)
	}
	return nil
}

// powerCap posts a new cluster power budget in watts (0 removes the cap)
// and prints the resulting snapshot.
func (c *client) powerCap(watts string) error {
	var w float64
	if _, err := fmt.Sscanf(watts, "%f", &w); err != nil {
		return fmt.Errorf("power cap: %q is not a wattage", watts)
	}
	body, err := json.Marshal(map[string]float64{"cap_w": w})
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+"/power/cap", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := c.prettyPrint(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("gateway returned %s", resp.Status)
	}
	return nil
}

func (c *client) get(path string) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return c.prettyPrint(resp.Body)
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
	url := c.base + "/invoke"
	okStatus := http.StatusOK
	if c.async {
		url += "?async=1"
		okStatus = http.StatusAccepted
	}
	resp, err := c.http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := c.prettyPrint(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != okStatus {
		return fmt.Errorf("gateway returned %s", resp.Status)
	}
	return nil
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

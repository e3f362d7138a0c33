// Package trace collects per-invocation records and computes the summary
// statistics the paper reports: per-function execution and overhead means
// (Fig 3), cluster throughput, and energy-per-function.
//
// The paper's OP timestamps every invocation at the orchestrator and on the
// worker; this package is the equivalent bookkeeping. Times are offsets on
// the experiment's clock (virtual in sim mode, wall in live mode).
package trace

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"microfaas/internal/chunklog"
)

// Record is one completed (or failed) function invocation.
type Record struct {
	// JobID is the invocation's job id.
	JobID int64
	// Function names the invoked function.
	Function string
	// Worker names the worker the attempt ran on.
	Worker string
	// Attempt is 0 for the first execution, >0 for OP-level retries.
	Attempt int

	// Submitted is when the OP enqueued the job; Started when the worker
	// began its cycle (power-on); Finished when the result arrived.
	Submitted, Started, Finished time.Duration

	// Boot, Overhead, and Exec decompose the worker's cycle: OS boot,
	// network/protocol overhead, and function execution (Fig 3's split).
	Boot, Overhead, Exec time.Duration

	// BootJoules and Joules are the metered energy the attempt drew on its
	// worker during its boot and in all (zero when the worker has no
	// meter); the rest of Joules is the overhead and execution's.
	BootJoules, Joules float64

	// Err is non-empty when the invocation failed.
	Err string
	// TimedOut marks a failure the OP's deadline settled before the
	// worker reported.
	TimedOut bool
}

// Collector accumulates records; safe for concurrent use.
//
// It stores each record as a row that holds no pointer: the job id, the
// six durations, the attempt, the two energies, and ordinals into two name tables, one for
// functions and one for workers. A failed row's error text sits in a side
// log, never in a name table: an error names its job, so interning it
// would grow the table with the log. Records and WriteCSV hand the rows
// back as Records; Summarize and ByFunction read them in place.
type Collector struct {
	mu sync.Mutex
	// rows is chunked: Add runs once per completed invocation on the hot
	// path, and a flat slice's geometric regrowth (zero + copy the whole
	// backing array at every doubling) dominated long runs.
	rows         chunklog.Log[row]
	fns, workers chunklog.Names
	// errs holds the error texts of the retained failed rows, in row
	// order; dropping a chunk of rows drops its rows' texts.
	errs []string
	// window bounds the table (0 = keep every record); n and nerrs count
	// every record ever added, so Len and ErrorCount stay exact and O(1).
	window   int
	n, nerrs int
}

// row is one record as a Collector stores it: 80 bytes with no pointer
// for the garbage collector to scan.
type row struct {
	job                          int64
	submitted, started, finished time.Duration
	boot, overhead, exec         time.Duration
	// attempt counts from 0 and stays below core's MaxAttempts: no job
	// lives through 2^31 attempts.
	attempt int32
	// fn and worker are ordinals in the collector's name tables.
	fn, worker uint32
	// bootJ and joules are the record's energies: a float32 carries a
	// board's joules to seven digits, and a trace sums them in float64.
	bootJ, joules float32
	// failed marks a row whose error text is the next one in errs, and
	// timedOut one the deadline settled.
	failed, timedOut bool
}

// WorkerRef is a worker's ordinal in one collector's worker table, the
// handle Worker returns: a caller takes it once per worker and passes it
// to Add, so filing a record never looks its worker up by name.
type WorkerRef uint32

// NewCollector returns an empty collector that keeps every record.
func NewCollector() *Collector { return &Collector{} }

// NewWindowCollector returns a collector that keeps the most recent window
// records (plus at most one chunk), dropping the oldest chunk as new ones
// arrive: the table for a live process, whose log would otherwise grow
// without bound. Len and ErrorCount still count every record ever added;
// Records, ByFunction and Summarize see the retained window.
func NewWindowCollector(window int) *Collector { return &Collector{window: window} }

// Worker returns the named worker's handle in this collector, adding the
// name to its worker table on first use.
func (c *Collector) Worker(name string) WorkerRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	return WorkerRef(c.workers.Ordinal(name))
}

// GrowWorkers makes room for n more worker names, so registering a
// cluster's workers sizes the worker table once.
func (c *Collector) GrowWorkers(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers.Grow(n)
}

// Add appends one record, settled on worker w, a handle from this
// collector's Worker: w names the worker, and r.Worker is not read.
func (c *Collector) Add(w WorkerRef, r Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	failed := r.Err != ""
	c.rows.Append(row{
		job:       r.JobID,
		submitted: r.Submitted, started: r.Started, finished: r.Finished,
		boot: r.Boot, overhead: r.Overhead, exec: r.Exec,
		attempt: int32(r.Attempt),
		fn:      c.fns.Ordinal(r.Function),
		worker:  uint32(w),
		bootJ:   float32(r.BootJoules), joules: float32(r.Joules),
		failed: failed, timedOut: r.TimedOut,
	})
	c.n++
	if failed {
		c.nerrs++
		c.errs = append(c.errs, r.Err)
	}
	if c.window > 0 && c.rows.Len() >= c.window+chunklog.ChunkSize {
		dropped := c.rows.DropOldestChunk()
		k := 0
		for i := range dropped {
			if dropped[i].failed {
				k++
			}
		}
		clear(c.errs[:k])
		c.errs = c.errs[k:]
	}
}

// Len returns the number of records ever added.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// ErrorCount returns the number of failed invocations ever added.
func (c *Collector) ErrorCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nerrs
}

// Records returns a copy of the retained records.
func (c *Collector) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Record, 0, c.rows.Len())
	c.eachLocked(func(rec Record) { out = append(out, rec) })
	return out
}

// eachLocked hands every retained row to fn as a Record, oldest first.
// Caller holds c.mu.
func (c *Collector) eachLocked(fn func(Record)) {
	e := 0
	c.rows.Each(func(r row) {
		rec := Record{
			JobID:     r.job,
			Function:  c.fns.Name(r.fn),
			Worker:    c.workers.Name(r.worker),
			Attempt:   int(r.attempt),
			Submitted: r.submitted, Started: r.started, Finished: r.finished,
			Boot: r.boot, Overhead: r.overhead, Exec: r.exec,
			BootJoules: float64(r.bootJ), Joules: float64(r.joules),
			TimedOut: r.timedOut,
		}
		if r.failed {
			rec.Err = c.errs[e]
			e++
		}
		fn(rec)
	})
}

// Summary is the whole-table reading every experiment and stats view
// takes, computed in place without copying the record table: successful
// and failed records counted, the successful ones' mean end-to-end (submit
// to result) latency and mean worker-side boot+overhead+exec cycle, and —
// through Percentile and CountFinished — their latency distribution and
// finish times.
type Summary struct {
	// Completed and Errors count the successful and the failed records.
	Completed, Errors int
	// MeanLatency and MeanCycle are the successful records' means.
	MeanLatency, MeanCycle time.Duration

	// Each successful record's latency (Finished − Submitted) and Finished,
	// in table order.
	latencies, finished []time.Duration
}

// Summarize reads the collectors' retained records as one table (a
// sharded cluster passes one collector per shard).
func Summarize(colls ...*Collector) Summary {
	var s Summary
	var latency, cycle time.Duration
	for _, c := range colls {
		c.mu.Lock()
		c.rows.Each(func(r row) {
			if r.failed {
				s.Errors++
				return
			}
			s.Completed++
			lat := r.finished - r.submitted
			latency += lat
			cycle += r.boot + r.overhead + r.exec
			s.latencies = append(s.latencies, lat)
			s.finished = append(s.finished, r.finished)
		})
		c.mu.Unlock()
	}
	if s.Completed > 0 {
		s.MeanLatency = latency / time.Duration(s.Completed)
		s.MeanCycle = cycle / time.Duration(s.Completed)
	}
	return s
}

// Percentile returns the p-th percentile (nearest-rank, see Percentile)
// of successful invocations' end-to-end latency.
func (s Summary) Percentile(p float64) time.Duration { return Percentile(s.latencies, p) }

// CountFinished returns how many successful invocations finished in the
// half-open window [lo, hi).
func (s Summary) CountFinished(lo, hi time.Duration) int {
	n := 0
	for _, f := range s.finished {
		if f >= lo && f < hi {
			n++
		}
	}
	return n
}

// FunctionStats summarizes one function's invocations.
type FunctionStats struct {
	// Function names the function.
	Function string
	// Count counts its records, and Errors the failed ones.
	Count, Errors int
	// Means over successful invocations: execution, overhead, their sum
	// (the worker-side total), and end-to-end latency.
	MeanExec, MeanOverhead, MeanTotal, MeanLatency time.Duration
	// P50/P95 of worker-side total time.
	P50Total, P95Total time.Duration
}

// ByFunction is the package-level ByFunction over this collector alone.
func (c *Collector) ByFunction() []FunctionStats { return ByFunction(c) }

// ByFunction groups the collectors' retained records (read as one table,
// like Summarize) and computes per-function statistics, sorted by
// function name.
func ByFunction(colls ...*Collector) []FunctionStats {
	type group struct {
		st             FunctionStats
		exec, ovh, lat time.Duration
		totals         []time.Duration
	}
	groups := map[string]*group{}
	for _, c := range colls {
		c.mu.Lock()
		// Each collector numbers its functions its own way: resolve each
		// ordinal to its group once, not once per row.
		byOrd := make([]*group, c.fns.Len())
		c.rows.Each(func(r row) {
			g := byOrd[r.fn]
			if g == nil {
				name := c.fns.Name(r.fn)
				if g = groups[name]; g == nil {
					g = &group{st: FunctionStats{Function: name}}
					groups[name] = g
				}
				byOrd[r.fn] = g
			}
			g.st.Count++
			if r.failed {
				g.st.Errors++
				return
			}
			g.exec += r.exec
			g.ovh += r.overhead
			g.lat += r.finished - r.submitted
			g.totals = append(g.totals, r.exec+r.overhead)
		})
		c.mu.Unlock()
	}
	out := make([]FunctionStats, 0, len(groups))
	for _, g := range groups {
		if ok := time.Duration(len(g.totals)); ok > 0 {
			g.st.MeanExec = g.exec / ok
			g.st.MeanOverhead = g.ovh / ok
			g.st.MeanTotal = (g.exec + g.ovh) / ok
			g.st.MeanLatency = g.lat / ok
			g.st.P50Total = Percentile(g.totals, 50)
			g.st.P95Total = Percentile(g.totals, 95)
		}
		out = append(out, g.st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Function < out[j].Function })
	return out
}

// Percentile returns the p-th percentile (nearest-rank) of durations:
// the smallest element with at least p% of the sample at or below it.
// Degenerate inputs resolve without special cases — an empty slice
// yields 0, a single-element slice yields that element for every p
// (p=0 rounds up to rank 1), and the input is never reordered (the
// ranking works on a copy). Panics for p outside [0,100].
func Percentile(ds []time.Duration, p float64) time.Duration {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("trace: percentile %v outside [0,100]", p))
	}
	if len(ds) == 0 {
		return 0
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// WriteCSV emits the retained records as CSV (header + one row per record).
func (c *Collector) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "job_id,function,worker,attempt,submitted_ms,started_ms,finished_ms,boot_ms,overhead_ms,exec_ms,error"); err != nil {
		return err
	}
	for _, r := range c.Records() {
		_, err := fmt.Fprintf(w, "%d,%s,%s,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%q\n",
			r.JobID, r.Function, r.Worker, r.Attempt,
			ms(r.Submitted), ms(r.Started), ms(r.Finished),
			ms(r.Boot), ms(r.Overhead), ms(r.Exec), r.Err)
		if err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

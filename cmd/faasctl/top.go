package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"microfaas/internal/gateway"
	"microfaas/internal/telemetry"
)

// top polls /metrics (and /workers for breaker states) and renders one
// cluster dashboard every interval: throughput, latency quantiles,
// per-function J/function, worker health. Samples are shard-labeled and
// aggregate by summing counters and merging histogram buckets before any
// quantile is taken. iterations > 0 stops after that many refreshes
// (scripts and tests); 0 runs until interrupted.
func (c *client) top(interval time.Duration, iterations int) error {
	var prevTotal float64
	var prevAt time.Time
	for i := 0; iterations <= 0 || i < iterations; i++ {
		if i > 0 {
			time.Sleep(interval)
			fmt.Fprintln(c.out)
		}
		samples, err := c.scrapeMetrics()
		if err != nil {
			return err
		}
		now := time.Now()
		total := samples.Sum("microfaas_function_invocations_total")
		if c.jsonOut {
			if err := c.renderTopJSON(samples, total, prevTotal, now, prevAt); err != nil {
				return err
			}
		} else {
			c.renderTop(samples, total, prevTotal, now, prevAt)
		}
		prevTotal, prevAt = total, now
	}
	return nil
}

// scrapeMetrics fetches and parses the gateway's /metrics exposition. It
// answers without cluster telemetry too (the gateway's own families are
// always there), so an exposition with no cluster families is an error.
func (c *client) scrapeMetrics() (telemetry.Samples, error) {
	resp, err := c.call(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	samples, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return nil, err
	}
	if _, ok := samples.Value("microfaas_jobs_pending"); !ok {
		return nil, fmt.Errorf("%s/metrics has no cluster metrics (telemetry disabled?)", c.base)
	}
	return samples, nil
}

// renderTop writes one dashboard frame. Scalar families are read with
// Sum, not Value: the gateway splits microfaas_jobs_pending and friends
// into one sample per shard, and the cluster view is their sum.
func (c *client) renderTop(samples telemetry.Samples, total, prevTotal float64, now, prevAt time.Time) {
	pending := samples.Sum("microfaas_jobs_pending")
	fmt.Fprintf(c.out, "invocations %.0f  pending %.0f", total, pending)
	if !prevAt.IsZero() && now.After(prevAt) {
		rate := (total - prevTotal) / now.Sub(prevAt).Minutes()
		fmt.Fprintf(c.out, "  throughput %.1f func/min", rate)
	}
	p50 := samples.HistogramQuantile("microfaas_invocation_latency_seconds", 0.50)
	p99 := samples.HistogramQuantile("microfaas_invocation_latency_seconds", 0.99)
	if p50 > 0 || p99 > 0 {
		fmt.Fprintf(c.out, "  latency p50 ≤ %.0fms p99 ≤ %.0fms", p50*1000, p99*1000)
	}
	if _, ok := samples.Value("microfaas_cluster_power_watts"); ok {
		watts := samples.Sum("microfaas_cluster_power_watts")
		joules := samples.Sum("microfaas_cluster_energy_joules_total")
		fmt.Fprintf(c.out, "  power %.2fW (%.1fJ total)", watts, joules)
	}
	if _, ok := samples.Value("microfaas_workers_powered"); ok {
		fmt.Fprintf(c.out, "  powered %.0f", samples.Sum("microfaas_workers_powered"))
		if cap := samples.Sum("microfaas_power_cap_watts"); cap > 0 {
			fmt.Fprintf(c.out, "  cap %.2fW", cap)
		}
	}
	if stolen := samples.Sum("microfaas_shard_stolen_total", "direction", "in"); stolen > 0 {
		fmt.Fprintf(c.out, "  stolen %.0f", stolen)
	}
	fmt.Fprintln(c.out)

	if fns := samples.LabelValues("microfaas_function_invocations_total", "function"); len(fns) > 0 {
		sort.Strings(fns)
		fmt.Fprintf(c.out, "%-14s %8s %7s %12s\n", "function", "ok", "errors", "J/function")
		for _, fn := range fns {
			okCount := samples.Sum("microfaas_function_invocations_total", "function", fn, "result", "ok")
			errCount := samples.Sum("microfaas_function_invocations_total", "function", fn, "result", "error")
			jpf := "-"
			if joules := samples.Sum("microfaas_function_energy_joules_total", "function", fn); joules > 0 && okCount+errCount > 0 {
				jpf = fmt.Sprintf("%.3f", joules/(okCount+errCount))
			}
			fmt.Fprintf(c.out, "%-14s %8.0f %7.0f %12s\n", fn, okCount, errCount, jpf)
		}
	}
	c.renderWorkers(samples)
}

// renderTopJSON writes one dashboard frame as a single JSON object —
// `top -json` for scripts; one object per refresh (NDJSON when looping).
func (c *client) renderTopJSON(samples telemetry.Samples, total, prevTotal float64, now, prevAt time.Time) error {
	frame := topFrame{
		Invocations: total,
		Pending:     samples.Sum("microfaas_jobs_pending"),
		P50S:        samples.HistogramQuantile("microfaas_invocation_latency_seconds", 0.50),
		P99S:        samples.HistogramQuantile("microfaas_invocation_latency_seconds", 0.99),
		PowerW:      samples.Sum("microfaas_cluster_power_watts"),
		EnergyJ:     samples.Sum("microfaas_cluster_energy_joules_total"),
		Stolen:      samples.Sum("microfaas_shard_stolen_total", "direction", "in"),
		Functions:   []topFunctionJSON{},
	}
	if !prevAt.IsZero() && now.After(prevAt) {
		frame.ThroughputM = (total - prevTotal) / now.Sub(prevAt).Minutes()
	}
	fns := samples.LabelValues("microfaas_function_invocations_total", "function")
	sort.Strings(fns)
	for _, fn := range fns {
		row := topFunctionJSON{
			Function: fn,
			OK:       samples.Sum("microfaas_function_invocations_total", "function", fn, "result", "ok"),
			Errors:   samples.Sum("microfaas_function_invocations_total", "function", fn, "result", "error"),
		}
		if joules := samples.Sum("microfaas_function_energy_joules_total", "function", fn); joules > 0 && row.OK+row.Errors > 0 {
			row.JoulesPF = joules / (row.OK + row.Errors)
		}
		frame.Functions = append(frame.Functions, row)
	}
	return json.NewEncoder(c.out).Encode(frame)
}

// renderWorkers appends the per-worker health line. Busy, queue-depth, and
// power state come from the same /metrics snapshot as the rest of the
// dashboard, so every number on screen is one consistent cut of the
// cluster — the previous implementation re-fetched /workers after the
// scrape, and its busy/queue counts raced the metrics they sat next to.
// Breaker state is not a gauge (metrics expose only transition counters),
// so it alone still comes from /workers, purely as an annotation.
func (c *client) renderWorkers(samples telemetry.Samples) {
	ids := samples.LabelValues("microfaas_worker_busy", "worker")
	if len(ids) == 0 {
		return
	}
	sort.Strings(ids)
	breakers := c.fetchBreakers()
	fmt.Fprintf(c.out, "workers:")
	for _, id := range ids {
		state := breakers[id]
		if state == "" {
			state = "?"
		}
		if busy, _ := samples.Value("microfaas_worker_busy", "worker", id); busy > 0 {
			state += ",busy"
		}
		if powered, ok := samples.Value("microfaas_worker_powered", "worker", id); ok {
			if powered > 0 {
				state += ",on"
			} else {
				state += ",off"
			}
		}
		queue, _ := samples.Value("microfaas_queue_depth", "worker", id)
		fmt.Fprintf(c.out, " %s=%s(q%.0f)", id, state, queue)
	}
	fmt.Fprintln(c.out)
}

// fetchBreakers maps worker id → current breaker state from /workers.
// Best-effort: on any error the dashboard renders with "?" states rather
// than failing the refresh.
func (c *client) fetchBreakers() map[string]string {
	var workers []gateway.WorkerInfo
	if err := c.getJSON("/workers", &workers); err != nil {
		return nil
	}
	states := make(map[string]string, len(workers))
	for _, w := range workers {
		states[w.ID] = w.Breaker
	}
	return states
}

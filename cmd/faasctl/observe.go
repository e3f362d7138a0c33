package main

import (
	"fmt"
	"net/url"
	"sort"
	"strings"
	"time"

	"microfaas/internal/gateway"
	"microfaas/internal/tsdb"
)

// sparkBlocks are the eight levels a sparkline cell can take.
var sparkBlocks = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values as a fixed-height block-character strip,
// scaled to the series' own min..max (a flat series renders as all-min).
func sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkBlocks)-1))
		}
		b.WriteRune(sparkBlocks[idx])
	}
	return b.String()
}

// labelsColumn renders a label set as sorted k=v pairs for table rows.
func labelsColumn(labels map[string]string) string {
	if len(labels) == 0 {
		return "(cluster)"
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+labels[k])
	}
	return strings.Join(parts, ",")
}

// watch renders a per-label-set sparkline table for one metric from the
// gateway's embedded time-series store, refreshing every interval like
// top. args: <metric> [op] — op defaults to "last" (use "rate" for
// counters).
func (c *client) watch(args []string, interval time.Duration, iterations int) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: watch <metric> [last|avg|min|max|increase|rate]")
	}
	metric := args[0]
	op := "last"
	if len(args) >= 2 {
		op = args[1]
	}
	params := url.Values{}
	params.Set("metric", metric)
	params.Set("op", op)
	params.Set("range", "1")
	// The sparkline plots the raw window; ask for enough lookback to
	// fill a strip at the refresh cadence.
	params.Set("window", (40 * interval).String())
	for i := 0; iterations <= 0 || i < iterations; i++ {
		if i > 0 {
			time.Sleep(interval)
			fmt.Fprintln(c.out)
		}
		var reply gateway.QueryResponse
		if err := c.getJSON("/query?"+params.Encode(), &reply); err != nil {
			return err
		}
		if len(reply.Series) == 0 {
			fmt.Fprintf(c.out, "%s: no series (metric unseen, or store not scraping yet)\n", metric)
			continue
		}
		fmt.Fprintf(c.out, "%s (%s)\n", metric, op)
		for _, sr := range reply.Series {
			vals := make([]float64, len(sr.Points))
			for j, p := range sr.Points {
				vals[j] = p.Value
			}
			fmt.Fprintf(c.out, "  %-40s %12.3f  %s\n", labelsColumn(sr.Labels), sr.Value, sparkline(vals))
		}
	}
	return nil
}

// sloTable renders GET /slo as one row per burn-rate page.
func (c *client) sloTable() error {
	var rules []tsdb.RuleStatus
	if err := c.getJSON("/slo", &rules); err != nil {
		return err
	}
	if len(rules) == 0 {
		fmt.Fprintln(c.out, "no SLO rules configured")
		return nil
	}
	fmt.Fprintf(c.out, "%-20s %-14s %-5s %-10s %10s %10s %10s %7s\n",
		"rule", "kind", "page", "windows", "short-burn", "long-burn", "threshold", "state")
	for _, r := range rules {
		for _, p := range r.Pages {
			state := "ok"
			if p.Firing {
				state = "FIRING"
			}
			fmt.Fprintf(c.out, "%-20s %-14s %-5s %-10s %10.2f %10.2f %10.2f %7s\n",
				r.Rule.Name, r.Rule.Kind, p.Page, time.Duration(p.ShortWindow).String()+"/"+time.Duration(p.LongWindow).String(),
				p.ShortBurn, p.LongBurn, p.Threshold, state)
		}
	}
	return nil
}

// alertsTable renders GET /alerts: firing pages first, then the
// transition history (oldest first).
func (c *client) alertsTable() error {
	var reply gateway.AlertsResponse
	if err := c.getJSON("/alerts", &reply); err != nil {
		return err
	}
	if len(reply.Active) == 0 {
		fmt.Fprintln(c.out, "no alerts firing")
	} else {
		fmt.Fprintf(c.out, "%-20s %-5s %12s %10s %10s %10s\n",
			"rule", "page", "since", "short-burn", "long-burn", "threshold")
		for _, a := range reply.Active {
			fmt.Fprintf(c.out, "%-20s %-5s %12s %10.2f %10.2f %10.2f\n",
				a.Rule, a.Page, fmtMs(a.SinceMs), a.ShortBurn, a.LongBurn, a.Threshold)
		}
	}
	if len(reply.History) > 0 {
		fmt.Fprintf(c.out, "history:\n")
		for _, ev := range reply.History {
			fmt.Fprintf(c.out, "  %12s %-14s %-20s %-5s %s\n",
				fmtMs(ev.AtMs), ev.Type, ev.Function, ev.Worker, ev.Detail)
		}
	}
	return nil
}

// topFrame is one machine-readable dashboard frame (`top -json`).
type topFrame struct {
	Invocations float64           `json:"invocations"`
	Pending     float64           `json:"pending"`
	ThroughputM float64           `json:"throughput_per_min,omitempty"`
	P50S        float64           `json:"latency_p50_s"`
	P99S        float64           `json:"latency_p99_s"`
	PowerW      float64           `json:"power_w,omitempty"`
	EnergyJ     float64           `json:"energy_j,omitempty"`
	Stolen      float64           `json:"stolen,omitempty"`
	Functions   []topFunctionJSON `json:"functions"`
}

// topFunctionJSON is one function's row inside a topFrame.
type topFunctionJSON struct {
	Function string  `json:"function"`
	OK       float64 `json:"ok"`
	Errors   float64 `json:"errors"`
	JoulesPF float64 `json:"joules_per_function,omitempty"`
}

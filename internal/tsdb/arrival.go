package tsdb

import "time"

// The arrival tracker's synthetic series and its source counter.
const (
	// MetricSubmittedByFunction is the per-function submission counter
	// the orchestrator exports and the tracker differentiates.
	MetricSubmittedByFunction = "microfaas_function_submitted_total"
	// MetricArrivalRate is the tracker's instantaneous per-function
	// arrival rate series (submissions per second over the last scrape
	// interval), injected back into the store as a queryable series.
	MetricArrivalRate = "microfaas_function_arrival_rate_per_s"
	// MetricArrivalEWMA is the exponentially-smoothed arrival rate.
	MetricArrivalEWMA = "microfaas_function_arrival_ewma_per_s"
	// MetricArrivalWindowMean is the mean of the sliding window of
	// instantaneous rates (per second) — the tracker's medium-term
	// level estimate, exported so /query sees what the forecaster sees.
	MetricArrivalWindowMean = "microfaas_function_arrival_window_mean_per_s"
	// MetricArrivalWindowMax is the max of the same sliding window (per
	// second) — the burst envelope a warm pool must absorb.
	MetricArrivalWindowMax = "microfaas_function_arrival_window_max_per_s"
)

// The arrival tracker's smoothing.
const (
	// DefaultEWMAAlpha is the EWMA's smoothing factor.
	DefaultEWMAAlpha = 0.3
	// DefaultArrivalWindow is the sliding window, in scrapes.
	DefaultArrivalWindow = 20
)

// arrivalState is one function's rate history, with the handles of the
// series it reads and writes so a steady-state update touches no map.
type arrivalState struct {
	function string
	// subs are the function's submission-counter series (one per shard),
	// in the store's first-seen order.
	subs []*series
	// out are the rate, EWMA, window-mean and window-max series, resolved
	// at the first rate (not at first sight, which would move them ahead
	// of metrics the next scrape meets first).
	out       [4]*series
	lastTotal float64
	seeded    bool
	ewma      float64
	lastRate  float64   // most recent instantaneous rate
	window    []float64 // sliding-window ring of instantaneous rates
	next, n   int
}

// windowStats summarizes the ring: mean and max over the filled part.
func (st *arrivalState) windowStats() (mean, max float64) {
	for i := 0; i < st.n; i++ {
		v := st.window[i]
		mean += v
		if v > max {
			max = v
		}
	}
	if st.n > 0 {
		mean /= float64(st.n)
	}
	return mean, max
}

// arrivalTracker maintains EWMA + sliding-window per-function arrival
// rates from the scraped submission counters — the explicit feed-in
// for forecast-driven warm pools. It consumes no randomness and visits
// functions in first-seen order, so its synthetic series are as
// deterministic as the counters they derive from.
type arrivalTracker struct {
	byFn       map[string]*arrivalState
	order      []*arrivalState
	classified int // submission-counter series already filed under a function
}

// arrivalMetrics names arrivalState.out, in ingest order.
var arrivalMetrics = [4]string{MetricArrivalRate, MetricArrivalEWMA, MetricArrivalWindowMean, MetricArrivalWindowMax}

// update differentiates this scrape's per-function submission totals
// into rates and injects the rate and EWMA series. Called from Scrape
// with s.mu held, after source ingest.
func (a *arrivalTracker) update(s *Store, now, interval time.Duration) {
	if a == nil {
		return
	}
	ms, ok := s.metrics[MetricSubmittedByFunction]
	if !ok {
		return
	}
	// File series new since the last scrape under their function; the
	// store's series order is append-only, so functions keep first-seen
	// order and each function's series keep theirs.
	for _, sr := range ms.order[a.classified:] {
		fn := sr.labels["function"]
		if fn == "" {
			continue
		}
		st, ok := a.byFn[fn]
		if !ok {
			st = &arrivalState{function: fn, window: make([]float64, DefaultArrivalWindow)}
			a.byFn[fn] = st
			a.order = append(a.order, st)
		}
		st.subs = append(st.subs, sr)
	}
	a.classified = len(ms.order)
	for _, st := range a.order {
		// Sum the counter across shards, in series order.
		total := 0.0
		for _, sr := range st.subs {
			total += sr.open.value
		}
		if !st.seeded || interval <= 0 {
			st.lastTotal = total
			st.seeded = true
			continue
		}
		delta := total - st.lastTotal
		if delta < 0 {
			delta = 0 // counter reset (shard restart)
		}
		st.lastTotal = total
		rate := delta / interval.Seconds()
		if st.n == 0 {
			st.ewma = rate
		} else {
			st.ewma = DefaultEWMAAlpha*rate + (1-DefaultEWMAAlpha)*st.ewma
		}
		st.lastRate = rate
		st.window[st.next] = rate
		st.next = (st.next + 1) % DefaultArrivalWindow
		if st.n < DefaultArrivalWindow {
			st.n++
		}
		mean, max := st.windowStats()
		if st.out[0] == nil {
			for i, metric := range arrivalMetrics {
				st.out[i] = s.seriesLocked(metric, map[string]string{"function": st.function})
			}
		}
		for i, v := range [4]float64{rate, st.ewma, mean, max} {
			st.out[i].push(v)
		}
	}
}

// Forecast is one function's arrival-rate summary for warm-pool sizing.
type Forecast struct {
	// Function names the workload function.
	Function string `json:"function"`
	// Rate is the most recent instantaneous arrival rate (per second).
	Rate float64 `json:"rate_per_s"`
	// EWMA is the exponentially-smoothed arrival rate (per second).
	EWMA float64 `json:"ewma_per_s"`
	// WindowMean and WindowMax summarize the sliding window of
	// instantaneous rates.
	WindowMean float64 `json:"window_mean_per_s"`
	WindowMax  float64 `json:"window_max_per_s"`
}

// Forecasts returns every tracked function's arrival summary in
// first-seen order — the warm-pool planner's input.
func (s *Store) Forecasts() []Forecast {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Forecast, 0, len(s.arrival.order))
	for _, st := range s.arrival.order {
		f := Forecast{Function: st.function, Rate: st.lastRate, EWMA: st.ewma}
		f.WindowMean, f.WindowMax = st.windowStats()
		out = append(out, f)
	}
	return out
}

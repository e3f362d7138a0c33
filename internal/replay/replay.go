// Package replay provides trace-driven workload replay: a Schedule is a
// time-ordered list of invocations (loadable from CSV, or generated
// synthetically), and Run drives it into a simulated or live cluster.
//
// The paper evaluates under saturation and a fixed arrival process; replay
// extends the harness to production-shaped load — most importantly the
// diurnal daily cycle, where MicroFaaS's power-down-when-idle design pays
// off hardest (Sec III-b/III-c). Generators are deterministic per seed.
package replay

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Entry is one scheduled invocation.
type Entry struct {
	// At is the offset from replay start.
	At time.Duration
	// Function is the workload function name.
	Function string
}

// Schedule is a time-ordered invocation list.
type Schedule []Entry

// Validate checks ordering and well-formedness.
func (s Schedule) Validate() error {
	for i, e := range s {
		if e.At < 0 {
			return fmt.Errorf("replay: entry %d at negative offset %v", i, e.At)
		}
		if e.Function == "" {
			return fmt.Errorf("replay: entry %d has no function", i)
		}
		if i > 0 && e.At < s[i-1].At {
			return fmt.Errorf("replay: entry %d (%v) precedes entry %d (%v)", i, e.At, i-1, s[i-1].At)
		}
	}
	return nil
}

// Duration returns the offset of the last entry (0 for an empty schedule).
func (s Schedule) Duration() time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1].At
}

// Rate returns the mean arrival rate in invocations per minute.
func (s Schedule) Rate() float64 {
	d := s.Duration()
	if d == 0 {
		return 0
	}
	return float64(len(s)) / d.Minutes()
}

// ReadCSV parses "at_ms,function" rows (offsets in milliseconds, e.g.
// "1500.000,RedisInsert"). The header row is required; entries are sorted
// by offset on load.
func ReadCSV(r io.Reader) (Schedule, error) {
	scanner := bufio.NewScanner(r)
	if !scanner.Scan() {
		return nil, fmt.Errorf("replay: empty schedule file")
	}
	if got := strings.TrimSpace(scanner.Text()); got != "at_ms,function" {
		return nil, fmt.Errorf("replay: bad header %q", got)
	}
	var out Schedule
	line := 1
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" {
			continue
		}
		atStr, fn, ok := strings.Cut(text, ",")
		if !ok || fn == "" {
			return nil, fmt.Errorf("replay: line %d: want at_ms,function", line)
		}
		ms, err := strconv.ParseFloat(atStr, 64)
		if err != nil || ms < 0 {
			return nil, fmt.Errorf("replay: line %d: bad offset %q", line, atStr)
		}
		out = append(out, Entry{
			At:       time.Duration(ms * float64(time.Millisecond)),
			Function: strings.TrimSpace(fn),
		})
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("replay: read: %w", err)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}

// DiurnalConfig shapes a synthetic daily cycle.
type DiurnalConfig struct {
	// Duration of the trace (default 24 h).
	Duration time.Duration
	// BaseRatePerMin is the overnight trough; PeakRatePerMin the afternoon
	// peak. Rate follows 1 - cos(2πt/T) scaled between them, troughing at
	// t=0 (midnight) and peaking at t=T/2 (noon).
	BaseRatePerMin, PeakRatePerMin float64
	// Functions to draw from, uniformly (required non-empty).
	Functions []string
	Seed      int64
}

// Diurnal generates a non-homogeneous Poisson arrival schedule via Lewis
// thinning, deterministic per seed.
func Diurnal(cfg DiurnalConfig) (Schedule, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 24 * time.Hour
	}
	if len(cfg.Functions) == 0 {
		return nil, fmt.Errorf("replay: diurnal trace needs functions")
	}
	if cfg.BaseRatePerMin < 0 || cfg.PeakRatePerMin <= 0 || cfg.PeakRatePerMin < cfg.BaseRatePerMin {
		return nil, fmt.Errorf("replay: need 0 <= base (%v) <= peak (%v), peak > 0",
			cfg.BaseRatePerMin, cfg.PeakRatePerMin)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rate := func(t time.Duration) float64 { // per minute
		phase := 2 * math.Pi * float64(t) / float64(cfg.Duration)
		return cfg.BaseRatePerMin + (cfg.PeakRatePerMin-cfg.BaseRatePerMin)*(1-math.Cos(phase))/2
	}
	maxRate := cfg.PeakRatePerMin // per minute
	var out Schedule
	t := time.Duration(0)
	for {
		// Exponential gap at the max rate, then thin.
		gapMin := rng.ExpFloat64() / maxRate
		t += time.Duration(gapMin * float64(time.Minute))
		if t >= cfg.Duration {
			break
		}
		if rng.Float64() <= rate(t)/maxRate {
			out = append(out, Entry{At: t, Function: cfg.Functions[rng.Intn(len(cfg.Functions))]})
		}
	}
	return out, nil
}

// Submitter is the slice of an orchestrator replay needs (satisfied by
// core.Orchestrator).
type Submitter interface {
	Submit(function string, args []byte) int64
}

// Scheduler abstracts event scheduling (core.Runtime satisfies it).
type Scheduler interface {
	After(d time.Duration, fn func()) (cancel func())
	Now() time.Duration
}

// Feed schedules every entry onto the runtime, submitting to the
// orchestrator at its offset (relative to Now at call time). It returns
// the number of scheduled entries; in sim mode, drive the engine to
// execute them.
func Feed(rt Scheduler, orch Submitter, sched Schedule) (int, error) {
	if err := sched.Validate(); err != nil {
		return 0, err
	}
	for _, e := range sched {
		e := e
		rt.After(e.At, func() { orch.Submit(e.Function, nil) })
	}
	return len(sched), nil
}

package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the experiment layer's parallel runner. Every experiment in
// this package is embarrassingly parallel at the granularity of a whole
// simulation: Monte-Carlo trials, sweep points, ablation arms, and rack
// shards each build their own sim.Engine (plus meter, orchestrator, and
// workers) and never share mutable state. The runner fans those
// independent instances across GOMAXPROCS OS threads and merges results in
// index order, so a parallel run's report is byte-identical to a serial
// run's — determinism comes from per-task derived seeds and ordered
// merging, never from scheduling luck.
//
// Events *within* one engine are never parallelized; see DESIGN.md's
// "Concurrency model" section.

// RunConfig is what every experiment run takes: the seed its result is a
// pure function of, and the pool size it does not depend on. Params and
// each experiment's Config embed it, so a row hands it over whole.
type RunConfig struct {
	Seed int64
	// Parallel bounds the worker pool fanning the run's independent
	// simulations across cores (<=0 = GOMAXPROCS, 1 = serial). Output is
	// byte-identical at any value.
	Parallel int
}

// Parallelism normalizes RunConfig.Parallel: values <= 0 select
// GOMAXPROCS (all available cores), anything else is used as given.
func Parallelism(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// DeriveSeed maps a base seed and a task index to a decorrelated per-task
// seed using the splitmix64 finalizer. Each task gets its own RNG stream,
// so results do not depend on how many tasks share a worker goroutine —
// the foundation of serial/parallel equivalence.
func DeriveSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// RunParallel executes fn(0..n-1) on a bounded pool of workers goroutines
// and returns the results in index order. workers <= 1 (or n <= 1) runs
// serially on the calling goroutine — the fast path used when a config
// asks for Parallel: 1, and the reference behavior parallel runs must
// reproduce byte-for-byte.
//
// If any fn returns an error, RunParallel returns the error with the
// lowest index (deterministic regardless of which goroutine hit it first);
// remaining indices still run to completion, keeping side effects (none,
// for well-behaved experiment tasks) independent of timing.
func RunParallel[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

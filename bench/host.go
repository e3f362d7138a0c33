package main

import (
	"crypto/sha256"
	"runtime"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("bench: getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces two collections (the second drains sync.Pool victim
// caches filled by the first) and returns the bytes of reachable heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// memCounters is the cumulative allocation state read at a window edge.
type memCounters struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}

// calibrate times a fixed SHA-256 spin. It runs before every trial so a
// result file shows whether the machine, not the code, moved between runs.
func calibrate() time.Duration {
	var buf [32]byte
	start := time.Now()
	for i := 0; i < 200000; i++ {
		buf = sha256.Sum256(buf[:])
	}
	sink = buf[0]
	return time.Since(start)
}

// sink defeats dead-code elimination of measured calls.
var sink byte

// allocsOf returns how many heap allocations one call of fn makes. Only
// meaningful while nothing else in the process is allocating.
func allocsOf(fn func()) float64 {
	before := readMem().mallocs
	fn()
	return float64(readMem().mallocs - before)
}

// Package chunklog provides an append-only log that stores its entries in
// fixed-size chunks instead of one flat slice.
//
// The flat-slice alternative (`s = append(s, v)`) regrows geometrically:
// every doubling allocates a fresh array of the full length and zeroes it
// before copying, so a million-entry log pays for zeroing and copying
// megabytes many times over. On the single-board computers this project
// targets (and the modest VMs it is developed on) that memory traffic is
// the dominant cost of the simulator's audit logs — the GPIO transition
// log and the trace collector both append once per event on the hot path.
// Chunking makes every append touch at most one small, freshly allocated
// chunk: no entry is ever copied or re-zeroed after it is written.
package chunklog

// ChunkSize is the number of entries per chunk. 1024 keeps chunks of
// typical record types (≈100 bytes) around 100 KiB — big enough to
// amortize allocation, small enough that allocating one never stalls on
// zeroing megabytes.
const ChunkSize = 1024

// Log is a chunked log, append-only except for DropOldestChunk. The zero
// value is an empty log ready for use. Log is not safe for concurrent use;
// callers hold their own locks (the audit-log owners already serialize on
// a mutex).
type Log[T any] struct {
	chunks [][]T
	n      int
}

// Len returns the number of entries held.
func (l *Log[T]) Len() int { return l.n }

// Append adds v to the end of the log.
func (l *Log[T]) Append(v T) {
	if k := len(l.chunks); k == 0 || len(l.chunks[k-1]) == ChunkSize {
		l.chunks = append(l.chunks, make([]T, 0, ChunkSize))
	}
	k := len(l.chunks) - 1
	l.chunks[k] = append(l.chunks[k], v)
	l.n++
}

// DropOldestChunk discards the oldest chunk — the first ChunkSize entries,
// or everything when the log holds a single chunk — which is how a caller
// bounds the log to a recent window. No-op on an empty log.
func (l *Log[T]) DropOldestChunk() {
	if len(l.chunks) == 0 {
		return
	}
	l.n -= len(l.chunks[0])
	l.chunks[0] = nil
	l.chunks = l.chunks[1:]
}

// Last returns the most recent entry and whether the log is non-empty.
func (l *Log[T]) Last() (T, bool) {
	if l.n == 0 {
		var zero T
		return zero, false
	}
	last := l.chunks[len(l.chunks)-1]
	return last[len(last)-1], true
}

// Flatten returns a fresh flat copy of all entries in append order.
func (l *Log[T]) Flatten() []T {
	out := make([]T, 0, l.n)
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}

// Each calls fn for every entry in append order. It exists so read paths
// that only need to scan (counters, CSV writers) can skip Flatten's copy.
func (l *Log[T]) Each(fn func(T)) {
	for _, c := range l.chunks {
		for i := range c {
			fn(c[i])
		}
	}
}

// Package chunklog provides an append-only log that stores its entries in
// fixed-size chunks instead of one flat slice, and Names, the ordinal
// table such a log's rows name their strings by.
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
//
// Both logs keep their rows free of pointers (a GPIO transition is 24
// bytes, a trace record 72), naming strings by Names ordinals instead of
// string headers, so the garbage collector never scans a chunk.
package chunklog

import "slices"

// ChunkSize is the number of entries per chunk. 1024 keeps a chunk of
// the audit logs' rows (24 and 72 bytes) at 24 and 72 KiB — big enough to
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
// bounds the log to a recent window, and returns the dropped entries so
// the caller can release what they index. Nil on an empty log.
func (l *Log[T]) DropOldestChunk() []T {
	if len(l.chunks) == 0 {
		return nil
	}
	dropped := l.chunks[0]
	l.n -= len(dropped)
	l.chunks[0] = nil
	l.chunks = l.chunks[1:]
	return dropped
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

// Each calls fn for every entry in append order, without copying the log.
func (l *Log[T]) Each(fn func(T)) {
	for _, c := range l.chunks {
		for i := range c {
			fn(c[i])
		}
	}
}

// Names numbers the distinct strings it is given 0, 1, 2, … in first-seen
// order, so a log row names a function, a worker or a cause in four bytes
// instead of a string header. Give it values from a bounded set only —
// never text that carries an id, such as an error message — or the table
// grows with the log. The zero value is empty and ready for use. Names is
// not safe for concurrent use.
type Names struct {
	names []string
	index map[string]uint32
}

// scanNames is the table size up to which Ordinal finds a name by
// comparing instead of hashing. A log's names come from a short static
// list (Table I's 17 functions, a dozen causes) whose strings usually
// share their bytes with the caller's, and a string compare of shared
// bytes is a length check and a pointer check.
const scanNames = 32

// Ordinal returns s's ordinal, adding s to the table if it is new.
func (t *Names) Ordinal(s string) uint32 {
	if len(t.names) <= scanNames {
		for i, n := range t.names {
			if n == s {
				return uint32(i)
			}
		}
	} else if i, ok := t.index[s]; ok {
		return i
	}
	i := uint32(len(t.names))
	t.names = append(t.names, s)
	if t.index == nil {
		t.index = make(map[string]uint32)
	}
	t.index[s] = i
	return i
}

// Grow makes room for n more names, so a caller adding a known number of
// them (a cluster's workers) sizes the table once instead of regrowing it.
func (t *Names) Grow(n int) {
	t.names = slices.Grow(t.names, n)
	if t.index == nil {
		t.index = make(map[string]uint32, len(t.names)+n)
	}
}

// Name returns the string whose ordinal is i.
func (t *Names) Name(i uint32) string { return t.names[i] }

// Len returns the number of distinct strings in the table.
func (t *Names) Len() int { return len(t.names) }

package chunklog

import (
	"fmt"
	"testing"
)

// flatten copies the log's entries out in append order.
func flatten[T any](l *Log[T]) []T {
	var out []T
	l.Each(func(v T) { out = append(out, v) })
	return out
}

func TestAppendOrder(t *testing.T) {
	var l Log[int]
	const n = ChunkSize*3 + 17 // cross several chunk boundaries
	for i := 0; i < n; i++ {
		l.Append(i)
	}
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	flat := flatten(&l)
	if len(flat) != n {
		t.Fatalf("%d entries, want %d", len(flat), n)
	}
	for i, v := range flat {
		if v != i {
			t.Fatalf("entry %d = %d, want %d", i, v, i)
		}
	}
}

func TestLast(t *testing.T) {
	var l Log[string]
	if _, ok := l.Last(); ok {
		t.Fatal("Last on empty log reported an entry")
	}
	l.Append("a")
	l.Append("b")
	if v, ok := l.Last(); !ok || v != "b" {
		t.Fatalf("Last = %q, %v; want \"b\", true", v, ok)
	}
	// Cross a chunk boundary and check Last tracks the newest chunk.
	for i := 0; i < ChunkSize; i++ {
		l.Append("x")
	}
	l.Append("tail")
	if v, _ := l.Last(); v != "tail" {
		t.Fatalf("Last after boundary = %q, want \"tail\"", v)
	}
}

func TestEachVisitsAllInOrder(t *testing.T) {
	var l Log[int]
	const n = ChunkSize + 5
	for i := 0; i < n; i++ {
		l.Append(i)
	}
	next := 0
	l.Each(func(v int) {
		if v != next {
			t.Fatalf("Each visited %d, want %d", v, next)
		}
		next++
	})
	if next != n {
		t.Fatalf("Each visited %d entries, want %d", next, n)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var l Log[byte]
	if l.Len() != 0 {
		t.Fatalf("zero log Len = %d", l.Len())
	}
	l.Each(func(byte) { t.Fatal("zero log Each visited an entry") })
}

func TestDropOldestChunk(t *testing.T) {
	var l Log[int]
	if l.DropOldestChunk() != nil { // empty: no-op
		t.Fatal("dropping from an empty log returned entries")
	}
	const n = 2*ChunkSize + 5
	for i := 0; i < n; i++ {
		l.Append(i)
	}
	if dropped := l.DropOldestChunk(); len(dropped) != ChunkSize || dropped[0] != 0 || dropped[ChunkSize-1] != ChunkSize-1 {
		t.Fatalf("dropped %d entries, want the first %d", len(dropped), ChunkSize)
	}
	if l.Len() != n-ChunkSize {
		t.Fatalf("Len after one drop = %d, want %d", l.Len(), n-ChunkSize)
	}
	if flat := flatten(&l); flat[0] != ChunkSize || flat[len(flat)-1] != n-1 {
		t.Fatalf("retained [%d, %d], want [%d, %d]", flat[0], flat[len(flat)-1], ChunkSize, n-1)
	}
	l.Append(n)
	if v, _ := l.Last(); v != n {
		t.Fatalf("append after a drop: Last = %d, want %d", v, n)
	}
	l.DropOldestChunk()
	l.DropOldestChunk() // the partial tail chunk: the log empties
	if l.Len() != 0 || len(flatten(&l)) != 0 {
		t.Fatalf("Len after dropping every chunk = %d", l.Len())
	}
	l.Append(7)
	if v, ok := l.Last(); !ok || v != 7 || l.Len() != 1 {
		t.Fatalf("emptied log not reusable: Last = %d, %v, Len %d", v, ok, l.Len())
	}
}

// TestNamesOrdinals: ordinals number distinct strings densely in
// first-seen order, a repeat returns its first ordinal whether the table
// is still scanned or already hashed, and equal text in a different
// string instance is the same name.
func TestNamesOrdinals(t *testing.T) {
	var names Names
	const n = 3 * scanNames
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			s := fmt.Sprintf("fn-%d", i) // a fresh instance every round
			if got := names.Ordinal(s); got != uint32(i) {
				t.Fatalf("round %d: Ordinal(%q) = %d, want %d", round, s, got, i)
			}
			if names.Name(uint32(i)) != s {
				t.Fatalf("Name(%d) = %q, want %q", i, names.Name(uint32(i)), s)
			}
		}
		if names.Len() != n {
			t.Fatalf("round %d: Len = %d, want %d", round, names.Len(), n)
		}
	}
}

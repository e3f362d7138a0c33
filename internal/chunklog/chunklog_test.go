package chunklog

import "testing"

func TestAppendFlattenOrder(t *testing.T) {
	var l Log[int]
	const n = ChunkSize*3 + 17 // cross several chunk boundaries
	for i := 0; i < n; i++ {
		l.Append(i)
	}
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	flat := l.Flatten()
	if len(flat) != n {
		t.Fatalf("Flatten len = %d, want %d", len(flat), n)
	}
	for i, v := range flat {
		if v != i {
			t.Fatalf("Flatten[%d] = %d, want %d", i, v, i)
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
	if got := l.Flatten(); len(got) != 0 {
		t.Fatalf("zero log Flatten = %v", got)
	}
	l.Each(func(byte) { t.Fatal("zero log Each visited an entry") })
}

func TestDropOldestChunk(t *testing.T) {
	var l Log[int]
	l.DropOldestChunk() // empty: no-op
	const n = 2*ChunkSize + 5
	for i := 0; i < n; i++ {
		l.Append(i)
	}
	l.DropOldestChunk()
	if l.Len() != n-ChunkSize {
		t.Fatalf("Len after one drop = %d, want %d", l.Len(), n-ChunkSize)
	}
	if flat := l.Flatten(); flat[0] != ChunkSize || flat[len(flat)-1] != n-1 {
		t.Fatalf("retained [%d, %d], want [%d, %d]", flat[0], flat[len(flat)-1], ChunkSize, n-1)
	}
	l.Append(n)
	if v, _ := l.Last(); v != n {
		t.Fatalf("append after a drop: Last = %d, want %d", v, n)
	}
	l.DropOldestChunk()
	l.DropOldestChunk() // the partial tail chunk: the log empties
	if l.Len() != 0 || len(l.Flatten()) != 0 {
		t.Fatalf("Len after dropping every chunk = %d", l.Len())
	}
	l.Append(7)
	if v, ok := l.Last(); !ok || v != 7 || l.Len() != 1 {
		t.Fatalf("emptied log not reusable: Last = %d, %v, Len %d", v, ok, l.Len())
	}
}

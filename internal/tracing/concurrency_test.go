package tracing

import (
	"io"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRecordAndExport hammers one tracer from parallel
// producers (start/record/end) while readers export and query — the
// live-mode shape, where worker goroutines record spans as gateway
// handlers stream /traces dumps. Run under -race.
func TestConcurrentRecordAndExport(t *testing.T) {
	tr := NewWithConfig(Config{MaxTraces: 64})
	const producers = 8
	const tracesEach = 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < tracesEach; i++ {
				job := int64(p*tracesEach + i)
				ctx := tr.StartTrace("f", job, "f", 0)
				tr.Record(ctx, Span{Phase: PhaseQueue, End: time.Millisecond})
				tr.Record(ctx, Span{Phase: PhaseExec, Worker: "w", Start: time.Millisecond, End: 2 * time.Millisecond, EnergyJ: 0.1})
				tr.EndTrace(ctx, 2*time.Millisecond, "w", "")
			}
		}(p)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := WriteChromeTrace(io.Discard, tr.Traces()); err != nil {
					t.Errorf("chrome export: %v", err)
					return
				}
				if err := WriteNDJSON(io.Discard, tr.Slowest(10)); err != nil {
					t.Errorf("ndjson export: %v", err)
					return
				}
				tr.Stats()
				tr.ByJob(3)
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if tr.Len() != 64 {
		t.Fatalf("Len = %d, want full ring of 64", tr.Len())
	}
	st := tr.Stats()
	if st.Active != 0 {
		t.Fatalf("stats.Active = %d after all ends", st.Active)
	}
	if st.Evicted != producers*tracesEach-64 {
		t.Fatalf("evicted = %d, want %d", st.Evicted, producers*tracesEach-64)
	}
	// Every retained trace must be internally consistent: children carry
	// the trace id and parent the root span.
	for _, x := range tr.Traces() {
		if len(x.Spans) != 2 {
			t.Fatalf("trace %v has %d spans", x.ID, len(x.Spans))
		}
		for _, s := range x.Spans {
			if s.Trace != x.ID || s.Parent != x.Root.ID {
				t.Fatalf("inconsistent span %+v in trace %v", s, x.ID)
			}
		}
	}
}

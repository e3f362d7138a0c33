package telemetry

import (
	"testing"
	"time"
)

func TestEventLogAppendAndSince(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 3; i++ {
		seq := l.Append(Event{Type: EventSubmit, Job: int64(i)})
		if seq != int64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	if _, _, last := l.Page(-1, 0); last != 2 {
		t.Fatalf("lastSeq=%d", last)
	}
	all := l.Since(-1, 0)
	if len(all) != 3 || all[0].Job != 0 || all[2].Job != 2 {
		t.Fatalf("since(-1) = %+v", all)
	}
	tail := l.Since(1, 0)
	if len(tail) != 1 || tail[0].Seq != 2 {
		t.Fatalf("since(1) = %+v", tail)
	}
	if got := l.Since(2, 0); got != nil {
		t.Fatalf("since(last) = %+v, want nil", got)
	}
}

func TestEventLogOverwriteOldest(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Append(Event{Job: int64(i)})
	}
	// Asking from the beginning only yields what the ring retains, and the
	// gap is visible: the first sequence returned is 6, not 0.
	got := l.Since(-1, 0)
	if len(got) != 4 || got[0].Seq != 6 || got[3].Seq != 9 {
		t.Fatalf("retained = %+v", got)
	}
}

func TestEventLogSinceMaxIsOldestFirst(t *testing.T) {
	l := NewEventLog(8)
	for i := 0; i < 6; i++ {
		l.Append(Event{Job: int64(i)})
	}
	got := l.Since(-1, 2)
	if len(got) != 2 || got[0].Seq != 0 || got[1].Seq != 1 {
		t.Fatalf("paged = %+v, want seqs 0,1", got)
	}
}

func TestEventLogGap(t *testing.T) {
	l := NewEventLog(4)
	// Nothing appended: no loss from any vantage point.
	if _, g, _ := l.Page(-1, 0); g != 0 {
		t.Fatalf("empty gap = %d", g)
	}
	for i := 0; i < 10; i++ {
		l.Append(Event{Job: int64(i)})
	}
	// Ring holds seqs 6..9; a from-scratch consumer lost 0..5.
	if _, g, _ := l.Page(-1, 0); g != 6 {
		t.Fatalf("gap(-1) = %d, want 6", g)
	}
	// A consumer current through seq 4 lost 5 only.
	if _, g, _ := l.Page(4, 0); g != 1 {
		t.Fatalf("gap(4) = %d, want 1", g)
	}
	// Current through the oldest survivor or later: nothing lost.
	for _, seq := range []int64{5, 6, 9, 42} {
		if _, g, _ := l.Page(seq, 0); g != 0 {
			t.Fatalf("gap(%d) = %d, want 0", seq, g)
		}
	}
	var nilLog *EventLog
	if _, g, _ := nilLog.Page(-1, 0); g != 0 {
		t.Fatalf("nil gap = %d", g)
	}
}

func TestEventLogPageAtomicity(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Append(Event{Job: int64(i)})
	}
	events, gap, last := l.Page(-1, 0)
	if len(events) != 4 || events[0].Seq != 6 || gap != 6 || last != 9 {
		t.Fatalf("page = %d events from %d, gap %d, last %d", len(events), events[0].Seq, gap, last)
	}
	// Page respects max while still reporting the full gap.
	events, gap, last = l.Page(-1, 2)
	if len(events) != 2 || events[0].Seq != 6 || gap != 6 || last != 9 {
		t.Fatalf("paged = %d events, gap %d, last %d", len(events), gap, last)
	}
	// A caught-up consumer: empty page, no loss.
	events, gap, last = l.Page(9, 0)
	if len(events) != 0 || gap != 0 || last != 9 {
		t.Fatalf("caught-up page = %d events, gap %d, last %d", len(events), gap, last)
	}
	var nilLog *EventLog
	if ev, g, lastSeq := nilLog.Page(-1, 0); ev != nil || g != 0 || lastSeq != -1 {
		t.Fatalf("nil page = %v, %d, %d", ev, g, lastSeq)
	}
}

func TestTelemetryEmit(t *testing.T) {
	tel := New()
	tel.Emit(1500*time.Millisecond, EventBoot, 7, "CascSHA", "sbc-001", 1, "cold")
	evs := tel.Events().Since(-1, 0)
	if len(evs) != 1 {
		t.Fatalf("events = %+v", evs)
	}
	ev := evs[0]
	if ev.Type != EventBoot || ev.Job != 7 || ev.Function != "CascSHA" ||
		ev.Worker != "sbc-001" || ev.Attempt != 1 || ev.Detail != "cold" || ev.AtMs != 1500 {
		t.Fatalf("event = %+v", ev)
	}
}

package cluster

import (
	"testing"

	"microfaas/internal/chunklog"
	"microfaas/internal/model"
)

// TestLiveTableIsBoundedSimTableIsNot is the assembler-level statement of
// who keeps what: the same number of settles — more than the live record
// window — leaves a live-assembled orchestrator holding at most window +
// one chunk of records with its lifetime count exact, and a sim-assembled
// one holding every record.
func TestLiveTableIsBoundedSimTableIsNot(t *testing.T) {
	const jobs = liveRecordWindow + chunklog.ChunkSize + 1

	l, err := StartLive(LiveOptions{Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	args := []byte(`{"rounds":1,"seed":"w"}`)
	for i := 0; i < jobs; i++ {
		if l.Orch.Submit("CascSHA", args) == 0 {
			t.Fatal("submit refused")
		}
	}
	l.Orch.Quiesce()
	coll := l.Orch.Collector()
	if coll.Len() != jobs || coll.ErrorCount() != 0 {
		t.Fatalf("live lifetime Len/ErrorCount = %d/%d, want %d/0", coll.Len(), coll.ErrorCount(), jobs)
	}
	if got := len(coll.Records()); got > liveRecordWindow+chunklog.ChunkSize || got < liveRecordWindow {
		t.Fatalf("live table holds %d records, want within [%d, %d]", got, liveRecordWindow, liveRecordWindow+chunklog.ChunkSize)
	}

	s, err := NewMicroFaaSSim(64, SimConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fn := model.Functions()[0].Name
	for i := 0; i < jobs; i++ {
		s.Orch.Submit(fn, nil)
	}
	s.Engine.RunAll()
	if got := len(s.Orch.Collector().Records()); got != jobs || s.Orch.Collector().Len() != jobs {
		t.Fatalf("sim table holds %d records (Len %d), want every one of %d", got, s.Orch.Collector().Len(), jobs)
	}
}

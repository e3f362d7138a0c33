package replay

import (
	"math"
	"strings"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/core"
)

func TestValidate(t *testing.T) {
	good := Schedule{{At: 0, Function: "A"}, {At: time.Second, Function: "B"}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schedule{
		{{At: -time.Second, Function: "A"}},
		{{At: 0, Function: ""}},
		{{At: time.Second, Function: "A"}, {At: 0, Function: "B"}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad schedule %d accepted", i)
		}
	}
}

func TestScheduleAggregates(t *testing.T) {
	s := Schedule{{At: 0, Function: "A"}, {At: 30 * time.Second, Function: "B"}, {At: time.Minute, Function: "C"}}
	if s.Duration() != time.Minute {
		t.Fatalf("Duration = %v", s.Duration())
	}
	if got := s.Rate(); got != 3 {
		t.Fatalf("Rate = %v func/min, want 3", got)
	}
	if (Schedule{}).Duration() != 0 || (Schedule{}).Rate() != 0 {
		t.Fatal("empty schedule aggregates wrong")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := Schedule{
		{At: 0, Function: "CascSHA"},
		{At: 1500 * time.Millisecond, Function: "RedisInsert"},
		{At: 2 * time.Second, Function: "COSGet"},
	}
	got, err := ReadCSV(strings.NewReader("at_ms,function\n0.000,CascSHA\n1500.000,RedisInsert\n2000.000,COSGet\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s) {
		t.Fatalf("round trip %d entries, want %d", len(got), len(s))
	}
	for i := range s {
		if got[i].Function != s[i].Function || got[i].At != s[i].At {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], s[i])
		}
	}
}

func TestReadCSVSortsAndRejectsGarbage(t *testing.T) {
	got, err := ReadCSV(strings.NewReader("at_ms,function\n2000,B\n1000,A\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Function != "A" || got[1].Function != "B" {
		t.Fatalf("not sorted: %+v", got)
	}
	for _, bad := range []string{
		"",
		"wrong,header\n1,A\n",
		"at_ms,function\nnot-a-number,A\n",
		"at_ms,function\n-5,A\n",
		"at_ms,function\n100\n",
	} {
		if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestDiurnalShape(t *testing.T) {
	sched, err := Diurnal(DiurnalConfig{
		Duration:       24 * time.Hour,
		BaseRatePerMin: 1,
		PeakRatePerMin: 20,
		Functions:      []string{"A", "B"},
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expected count: mean rate = (base+peak)/2 = 10.5/min over 1440 min.
	want := 10.5 * 1440
	if got := float64(len(sched)); math.Abs(got-want)/want > 0.10 {
		t.Fatalf("%v arrivals, want ≈%v", got, want)
	}
	// Noon (hours 10-14) must be far busier than midnight (hours 0-2 and 22-24).
	count := func(from, to time.Duration) int {
		n := 0
		for _, e := range sched {
			if e.At >= from && e.At < to {
				n++
			}
		}
		return n
	}
	noon := count(10*time.Hour, 14*time.Hour)
	night := count(0, 2*time.Hour) + count(22*time.Hour, 24*time.Hour)
	if noon < night*3 {
		t.Fatalf("noon %d vs night %d arrivals — diurnal shape missing", noon, night)
	}
}

func TestDiurnalDeterministicPerSeed(t *testing.T) {
	cfg := DiurnalConfig{BaseRatePerMin: 1, PeakRatePerMin: 5, Functions: []string{"A"}, Seed: 7}
	a, err := Diurnal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Diurnal(cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestDiurnalValidation(t *testing.T) {
	if _, err := Diurnal(DiurnalConfig{PeakRatePerMin: 5}); err == nil {
		t.Fatal("missing functions accepted")
	}
	if _, err := Diurnal(DiurnalConfig{BaseRatePerMin: 10, PeakRatePerMin: 5, Functions: []string{"A"}}); err == nil {
		t.Fatal("base > peak accepted")
	}
	if _, err := Diurnal(DiurnalConfig{Functions: []string{"A"}}); err == nil {
		t.Fatal("zero peak accepted")
	}
}

func TestFeedIntoSimCluster(t *testing.T) {
	s, err := cluster.NewMicroFaaSSim(4, cluster.SimConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{
		{At: 0, Function: "FloatOps"},
		{At: 2 * time.Second, Function: "RegExMatch"},
		{At: 5 * time.Second, Function: "CascSHA"},
	}
	n, err := Feed(core.SimRuntime{Engine: s.Engine}, s.Orch, sched)
	if err != nil || n != 3 {
		t.Fatalf("Feed = %d, %v", n, err)
	}
	s.Engine.RunAll()
	recs := s.Orch.Collector().Records()
	if len(recs) != 3 {
		t.Fatalf("completed %d of 3", len(recs))
	}
	// Submission timestamps must match the schedule offsets.
	subs := map[string]time.Duration{}
	for _, r := range recs {
		subs[r.Function] = r.Submitted
	}
	if subs["FloatOps"] != 0 || subs["RegExMatch"] != 2*time.Second || subs["CascSHA"] != 5*time.Second {
		t.Fatalf("submission times = %v", subs)
	}
}

func TestFeedRejectsInvalidSchedule(t *testing.T) {
	s, err := cluster.NewMicroFaaSSim(1, cluster.SimConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Feed(core.SimRuntime{Engine: s.Engine}, s.Orch, Schedule{{At: -1, Function: "X"}}); err == nil {
		t.Fatal("invalid schedule fed")
	}
}

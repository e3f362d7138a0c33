package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"microfaas/internal/tsdb"
)

// smallFailover keeps the acceptance shape (kill several shards mid-run
// under open-loop load) at a size the test suite can afford.
func smallFailover(parallel int) (ShardFailoverResult, error) {
	return ShardFailover(ShardFailoverConfig{
		Shards:          8,
		WorkersPerShard: 4,
		Kills:           2,
		Bursts:          60,
		BurstEvery:      250 * time.Millisecond,
		JobsPerBurst:    8,
		KeySpace:        32,
		RunConfig:       RunConfig{Seed: detSeed, Parallel: parallel},
	})
}

// TestShardFailoverAcceptance is the PR's acceptance check at test
// scale: killing shards mid-run loses zero accepted invocations, every
// kill becomes a health-checker death, and throughput recovers to
// within 10% of the pre-kill rate once the dead shards' boards have
// re-homed onto survivors.
func TestShardFailoverAcceptance(t *testing.T) {
	res, err := smallFailover(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 2 || res.Arms[0].Name != "static" || res.Arms[1].Name != "failover" {
		t.Fatalf("arms = %+v", res.Arms)
	}
	jobs := 60 * 8
	for _, a := range res.Arms {
		if a.Accepted != jobs {
			t.Fatalf("%s: accepted %d of %d submissions", a.Name, a.Accepted, jobs)
		}
		if a.Lost != 0 {
			t.Fatalf("%s: lost %d accepted invocations", a.Name, a.Lost)
		}
		if a.Completed != jobs || a.Errors != 0 {
			t.Fatalf("%s: completed %d errors %d, want %d/0", a.Name, a.Completed, a.Errors, jobs)
		}
		if a.PrePerMin <= 0 || a.PostPerMin <= 0 {
			t.Fatalf("%s: empty rate window (pre %.0f post %.0f)", a.Name, a.PrePerMin, a.PostPerMin)
		}
	}
	static, failover := res.Arms[0], res.Arms[1]
	if static.Deaths != 0 {
		t.Fatalf("static arm saw %d deaths", static.Deaths)
	}
	if failover.Deaths != res.Kills {
		t.Fatalf("failover arm: %d deaths, want %d", failover.Deaths, res.Kills)
	}
	if failover.Recovery < 0.9 {
		t.Fatalf("throughput recovered to only %.1f%% of the pre-kill rate", 100*failover.Recovery)
	}
	if failover.Stolen < static.Stolen {
		t.Fatalf("failover stole %d < static %d: death drains not counted?", failover.Stolen, static.Stolen)
	}

	var sb strings.Builder
	if err := WriteShardFailover(&sb, res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"static", "failover", "recovery", "lost"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, sb.String())
		}
	}
}

func TestShardFailoverValidates(t *testing.T) {
	if _, err := ShardFailover(ShardFailoverConfig{Shards: 4, Kills: 4}); err == nil {
		t.Fatal("killing every shard accepted")
	}
}

func TestDeterminismShardFailover(t *testing.T) {
	runTwiceAndCompare(t, "shardfailover", smallFailover)
}

// sloFailover drives the failover demo a notch over cluster capacity so
// the latency objective has a real violation to catch: the burn crosses
// threshold in the kill window and recovers once the backlog drains
// after the submission horizon.
func sloFailover(parallel int) (ShardFailoverResult, error) {
	return ShardFailover(ShardFailoverConfig{
		Shards:          8,
		WorkersPerShard: 4,
		Kills:           4,
		Bursts:          80,
		BurstEvery:      500 * time.Millisecond,
		JobsPerBurst:    7,
		KeySpace:        32,
		RunConfig:       RunConfig{Seed: detSeed, Parallel: parallel},
		SLO: []tsdb.Rule{{
			Name: "latency-burn", Kind: tsdb.KindLatency,
			ThresholdS: 4.7, Target: 0.7,
			Windows: &tsdb.Windows{
				FastShort: tsdb.Duration(4 * time.Second), FastLong: tsdb.Duration(10 * time.Second), FastBurn: 1.5,
				SlowShort: tsdb.Duration(8 * time.Second), SlowLong: tsdb.Duration(20 * time.Second), SlowBurn: 1.2,
			},
		}},
	})
}

// TestShardFailoverSLOAlertTimeline is the PR's acceptance check for the
// alerting pipeline: with SLO rules installed, the failover arm's
// latency-burn alert fires during the 4-shard kill and resolves after
// recovery, and the timeline is identical serial vs parallel. Without
// rules the arms carry no timeline at all.
func TestShardFailoverSLOAlertTimeline(t *testing.T) {
	res, err := sloFailover(1)
	if err != nil {
		t.Fatal(err)
	}
	killMs := res.KillAtS * 1000
	for _, a := range res.Arms {
		if a.Alerts == nil {
			t.Fatalf("%s: SLO run returned a nil timeline", a.Name)
		}
	}
	failover := res.Arms[1]
	var firing, resolved []tsdb.Event
	for _, ev := range failover.Alerts {
		switch ev.Type {
		case tsdb.EventAlertFiring:
			firing = append(firing, ev)
		case tsdb.EventAlertResolved:
			resolved = append(resolved, ev)
		default:
			t.Fatalf("unexpected event type %q in timeline", ev.Type)
		}
		if ev.Function != "latency-burn" {
			t.Fatalf("timeline names rule %q, want latency-burn", ev.Function)
		}
	}
	if len(firing) == 0 || len(resolved) == 0 {
		t.Fatalf("failover timeline must both fire and resolve, got %d firing / %d resolved:\n%+v",
			len(firing), len(resolved), failover.Alerts)
	}
	// Fires during the kill: the first transition lands after the kills
	// begin and well before the submission horizon ends.
	if first := firing[0].AtMs; first < killMs || first > killMs+10_000 {
		t.Fatalf("first firing at %.2fs, want inside the kill window starting t=%.2fs", first/1000, killMs/1000)
	}
	// Resolves after recovery: the last transition is a resolution, after
	// every firing.
	last := failover.Alerts[len(failover.Alerts)-1]
	if last.Type != tsdb.EventAlertResolved {
		t.Fatalf("timeline ends %q, want a resolution:\n%+v", last.Type, failover.Alerts)
	}
	if last.AtMs <= firing[len(firing)-1].AtMs {
		t.Fatalf("final resolution at %.2fs does not follow the last firing at %.2fs",
			last.AtMs/1000, firing[len(firing)-1].AtMs/1000)
	}

	// Deterministic under the worker pool: the parallel run's timelines
	// (and aggregates) match the serial run exactly.
	par, err := sloFailover(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, par) {
		t.Fatalf("serial and parallel SLO runs diverged:\nserial:   %+v\nparallel: %+v", res, par)
	}

	// No rules → no timeline, and the run itself is unchanged.
	bare, err := ShardFailover(ShardFailoverConfig{
		Shards: 8, WorkersPerShard: 4, Kills: 4, Bursts: 80,
		BurstEvery: 500 * time.Millisecond, JobsPerBurst: 7, KeySpace: 32,
		RunConfig: RunConfig{Seed: detSeed, Parallel: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range bare.Arms {
		if a.Alerts != nil {
			t.Fatalf("%s: run without rules grew a timeline", a.Name)
		}
	}
	if bare.Arms[1].Completed != res.Arms[1].Completed || bare.Arms[1].Stolen != res.Arms[1].Stolen {
		t.Fatalf("observing the run changed it: bare %+v vs slo %+v", bare.Arms[1], res.Arms[1])
	}
}

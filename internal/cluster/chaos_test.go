package cluster

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"microfaas/internal/core"
	"microfaas/internal/power"
	"microfaas/internal/shard"
	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
)

// chaosChurnRun drives one seeded kill/revive schedule against a
// 6-shard cluster with dynamic membership: submissions arrive in bursts
// over several seconds while two randomly-chosen shards are killed
// mid-run and revived later, so deaths (queue drain into survivors,
// worker re-homing) and rejoins (workers returning home) both happen
// under load. Returns everything the assertions need.
type chaosOutcome struct {
	ids      []int64
	fired    map[int64]int
	deaths   int
	rejoins  int
	epoch    int64
	stats    ShardedStats
	sim      *ShardedSim
	rejected int
}

func chaosChurnRun(t *testing.T, seed int64) *chaosOutcome {
	t.Helper()
	out := &chaosOutcome{fired: map[int64]int{}}
	scfg := shard.Config{
		BoundFactor: -1, // keep keys home so kills catch real backlogs
		Steal:       shard.StealConfig{Enabled: true, Interval: 100 * time.Millisecond},
		Membership: shard.MembershipConfig{
			Enabled:  true,
			OnDeath:  func(int) { out.deaths++ },
			OnRejoin: func(int) { out.rejoins++ },
		},
	}
	s, err := NewShardedMicroFaaSSim(6, 8, SimConfig{
		Seed:      seed,
		Policy:    core.AssignLeastLoaded,
		Telemetry: telemetry.New(), // each shard's event ring names its steals
	}, scfg)
	if err != nil {
		t.Fatalf("NewShardedMicroFaaSSim: %v", err)
	}
	out.sim = s

	// Bursty submissions over ~8s of virtual time so shards hold queue
	// backlogs when the churn hits.
	const bursts, perBurst = 20, 20
	for b := 0; b < bursts; b++ {
		b := b
		s.Engine.At(time.Duration(b)*400*time.Millisecond, func() {
			for j := 0; j < perBurst; j++ {
				key := "u/" + strconv.Itoa((b*perBurst+j)%12)
				id, _ := s.Plane.Submit(key, "FloatOps", nil, func(res core.Result) {
					out.fired[res.Job.ID]++
				})
				if id == 0 {
					out.rejected++
					continue
				}
				out.ids = append(out.ids, id)
			}
		})
	}

	// The churn schedule comes from its own seeded stream (distinct from
	// the engine's), so it is a pure function of the test seed.
	rng := rand.New(rand.NewSource(seed * 977))
	for _, si := range rng.Perm(6)[:2] {
		kill := time.Duration(1000+rng.Intn(3000)) * time.Millisecond
		s.ScheduleKill(kill, si)
		s.Engine.At(kill+time.Duration(2000+rng.Intn(2000))*time.Millisecond, func() { _ = s.Revive(si) })
	}

	if err := s.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	for _, st := range s.Plane.Status() {
		out.epoch += st.Epoch
	}
	out.stats = s.Stats()
	return out
}

// TestShardedChaosChurn is the failover acceptance test: across seeds
// 1–4, every accepted invocation settles exactly once (no losses, no
// duplicates) even though shards die with queued backlogs and rejoin
// mid-run, job ids stay unique cluster-wide, and migrated jobs' traces
// still telescope — phases plus unattributed gap equal end-to-end
// latency, and phase joules match the energy reconstructed from the run
// records.
func TestShardedChaosChurn(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		out := chaosChurnRun(t, seed)
		const jobs = 20 * 20
		if out.rejected != 0 {
			t.Fatalf("seed %d: %d submissions rejected despite live shards", seed, out.rejected)
		}
		if len(out.ids) != jobs {
			t.Fatalf("seed %d: accepted %d of %d submissions", seed, len(out.ids), jobs)
		}
		seen := map[int64]bool{}
		for _, id := range out.ids {
			if seen[id] {
				t.Fatalf("seed %d: duplicate job id %d", seed, id)
			}
			seen[id] = true
		}
		for _, id := range out.ids {
			if out.fired[id] != 1 {
				t.Fatalf("seed %d: job %d settled %d times", seed, id, out.fired[id])
			}
		}
		if len(out.fired) != jobs {
			t.Fatalf("seed %d: %d distinct callbacks for %d jobs", seed, len(out.fired), jobs)
		}
		if out.deaths == 0 {
			t.Fatalf("seed %d: churn schedule produced no shard deaths", seed)
		}
		if out.rejoins != out.deaths {
			t.Fatalf("seed %d: %d deaths but %d rejoins (every killed shard was revived)", seed, out.deaths, out.rejoins)
		}
		if out.epoch < int64(3*out.deaths) {
			// Each death is at least suspect→dead (2) plus a rejoin (1).
			t.Fatalf("seed %d: membership epoch %d too low for %d deaths", seed, out.epoch, out.deaths)
		}
		if out.stats.Completed != jobs || out.stats.Errors != 0 {
			t.Fatalf("seed %d: completed %d errors %d, want %d/0", seed, out.stats.Completed, out.stats.Errors, jobs)
		}

		// Every board must be accounted for once the dust settles: the
		// rejoined shards took their partitions back.
		total := 0
		for _, st := range out.sim.Plane.Status() {
			total += st.Workers
			if st.State != "up" {
				t.Fatalf("seed %d: shard %d finished in state %q", seed, st.Index, st.State)
			}
		}
		if total != 6*8 {
			t.Fatalf("seed %d: %d workers attached after churn, want %d", seed, total, 6*8)
		}

		verifyMigratedTraces(t, seed, out)
	}
}

// verifyMigratedTraces checks the FaasMeter-style invariant on every job
// that crossed shards, found by the "stolen-from" events in the shards'
// event rings: its trace, rendered from every shard's rows, still
// telescopes — phase latencies plus the unattributed gap equal the
// end-to-end latency — and its joules match the energy the run records
// imply.
func verifyMigratedTraces(t *testing.T, seed int64, out *chaosOutcome) {
	t.Helper()
	colls := make([]*trace.Collector, len(out.sim.Orchs))
	for i, o := range out.sim.Orchs {
		colls[i] = o.Collector()
	}
	moved := map[int64]bool{}
	for i, tel := range out.sim.Telemetries {
		events, gap, _ := tel.Events().Page(-1, 0)
		if gap != 0 {
			t.Fatalf("seed %d: shard %d's event ring dropped %d events", seed, i, gap)
		}
		for _, ev := range events {
			if ev.Detail == "stolen-from" {
				moved[ev.Job] = true
			}
		}
	}
	if len(moved) == 0 {
		t.Fatalf("seed %d: churn produced no migrated jobs", seed)
	}
	sbc := power.DefaultSBCModel()
	for job := range moved {
		x, ok := trace.TraceOf(job, colls...)
		if !ok {
			t.Fatalf("seed %d: migrated job %d has no trace", seed, job)
		}
		sum := x.Breakdown()
		if sum.Err != "" {
			t.Fatalf("seed %d: migrated job %d failed: %s", seed, job, sum.Err)
		}
		var phaseTotal time.Duration
		var phaseJoules, want float64
		for _, p := range sum.Phases {
			phaseTotal += p.Duration
			phaseJoules += p.EnergyJ
		}
		if phaseTotal+sum.Unattributed != sum.Latency {
			t.Fatalf("seed %d: job %d phases %v + unattributed %v != latency %v",
				seed, job, phaseTotal, sum.Unattributed, sum.Latency)
		}
		if phaseJoules != sum.EnergyJ {
			t.Fatalf("seed %d: job %d phase joules %v != summary joules %v", seed, job, phaseJoules, sum.EnergyJ)
		}
		for _, c := range colls {
			for _, r := range c.Records() {
				if r.JobID != job {
					continue
				}
				if wantLat := r.Finished - r.Submitted; r.Err == "" && sum.Latency != wantLat {
					t.Fatalf("seed %d: job %d trace latency %v != record latency %v", seed, job, sum.Latency, wantLat)
				}
				want += r.Boot.Seconds()*float64(sbc.Power(power.Booting)) +
					(r.Overhead+r.Exec).Seconds()*float64(sbc.Power(power.Busy))
			}
		}
		if diff := math.Abs(sum.EnergyJ - want); diff > 0.01*want {
			t.Fatalf("seed %d: job %d trace %.6f J vs record-derived %.6f J (%.2f%% off)",
				seed, job, sum.EnergyJ, want, 100*diff/want)
		}
	}
}

// TestShardedChurnDeterminism replays the same seeded churn schedule
// twice and requires identical aggregate results and membership epochs:
// kill timing, death declarations, queue drains, and worker re-homing
// are all functions of the virtual clock.
func TestShardedChurnDeterminism(t *testing.T) {
	a := chaosChurnRun(t, 2)
	b := chaosChurnRun(t, 2)
	if a.stats != b.stats {
		t.Fatalf("churn runs diverged:\n%+v\n%+v", a.stats, b.stats)
	}
	if a.epoch != b.epoch || a.deaths != b.deaths || a.rejoins != b.rejoins {
		t.Fatalf("membership history diverged: epoch %d/%d deaths %d/%d rejoins %d/%d",
			a.epoch, b.epoch, a.deaths, b.deaths, a.rejoins, b.rejoins)
	}
}

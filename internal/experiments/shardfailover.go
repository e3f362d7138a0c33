package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/core"
	"microfaas/internal/model"
	"microfaas/internal/shard"
	"microfaas/internal/telemetry"
	"microfaas/internal/tsdb"
)

// ShardFailover measures what dynamic shard membership costs and what
// it buys: a sharded MicroFaaS cluster takes timed open-loop traffic
// while several control-plane shards are killed mid-run (hosts lost,
// never revived — their boards re-home onto survivors). Two arms:
//
//	static    fixed membership, no failures — the baseline
//	failover  health-checked membership, Kills shards die at 30% of
//	          the submission window
//
// The claims under test: no accepted invocation is lost (queued work
// drains into survivors identity-intact, in-flight work settles), and
// throughput recovers to the pre-kill rate once the dead shards'
// worker partitions have re-homed. Both arms run the same submission
// schedule on the virtual clock, so their rate windows are directly
// comparable and every number is deterministic under the seed.
type ShardFailoverConfig struct {
	// Shards is the control-plane shard count (default 64).
	Shards int
	// WorkersPerShard sizes each shard's SBC partition (default 8).
	WorkersPerShard int
	// Kills is how many shards die mid-run (default 4).
	Kills int
	// Bursts and BurstEvery shape the open-loop schedule: Bursts
	// submission waves, one every BurstEvery of virtual time (defaults
	// 160 and 250ms — a 40s window).
	Bursts     int
	BurstEvery time.Duration
	// JobsPerBurst is the wave size (default Shards×WorkersPerShard/8).
	JobsPerBurst int
	// KeySpace is the number of distinct routing keys (default 256).
	KeySpace int
	// RunConfig derives the victims and every arm's seed, and bounds the
	// pool running arms across cores.
	RunConfig
	// SLO, when set, enables per-shard telemetry plus an embedded
	// time-series store scraping on the aggregator tick, evaluates these
	// rules on every scrape, and reports each arm's alert timeline. Nil
	// keeps the run (and its output) byte-identical to an unobserved one.
	SLO []tsdb.Rule
}

// ShardFailoverArm is one arm's aggregate result.
type ShardFailoverArm struct {
	// Name identifies the arm: "static" or "failover".
	Name string
	// Accepted counts submissions the plane took; Lost is accepted
	// invocations that never settled (the headline: must be 0).
	Accepted, Lost int
	// Completed/Errors count settled invocations.
	Completed, Errors int
	// Deaths is how many shards the health checker declared dead.
	Deaths int
	// Stolen counts cross-shard migrations, death drains included.
	Stolen int64
	// PrePerMin/PostPerMin are completion rates in the pre-kill and
	// post-recovery windows; Recovery is their ratio (post/pre).
	PrePerMin, PostPerMin, Recovery float64
	// P99S is the end-to-end p99 latency over the whole run, seconds.
	P99S float64
	// JoulesPerFunc is metered energy per completed invocation.
	JoulesPerFunc float64
	// MakespanS is the arm's virtual duration in seconds.
	MakespanS float64
	// Alerts is the SLO alert timeline (firing/resolved transitions in
	// virtual-clock order). Non-nil exactly when the run had SLO rules.
	Alerts []tsdb.Event
}

// ShardFailoverResult is the two-arm comparison.
type ShardFailoverResult struct {
	// Shards, SBCs, and Kills record the sizing.
	Shards, SBCs, Kills int
	// KillAtS is when the kills land, in virtual seconds.
	KillAtS float64
	// Victims lists the killed shard indices in kill order.
	Victims []int
	// Arms holds static then failover.
	Arms []ShardFailoverArm
}

// ShardFailover runs both arms (in parallel when configured) and
// reports lost work, throughput recovery, tail latency, and energy.
func ShardFailover(cfg ShardFailoverConfig) (ShardFailoverResult, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 64
	}
	if cfg.WorkersPerShard <= 0 {
		cfg.WorkersPerShard = 8
	}
	if cfg.Kills <= 0 {
		cfg.Kills = 4
	}
	if cfg.Kills >= cfg.Shards {
		return ShardFailoverResult{}, fmt.Errorf("experiments: cannot kill %d of %d shards", cfg.Kills, cfg.Shards)
	}
	if cfg.Bursts <= 0 {
		cfg.Bursts = 160
	}
	if cfg.BurstEvery <= 0 {
		cfg.BurstEvery = 250 * time.Millisecond
	}
	if cfg.JobsPerBurst <= 0 {
		if cfg.JobsPerBurst = cfg.Shards * cfg.WorkersPerShard / 8; cfg.JobsPerBurst < 1 {
			cfg.JobsPerBurst = 1
		}
	}
	if cfg.KeySpace <= 0 {
		cfg.KeySpace = 256
	}
	horizon := time.Duration(cfg.Bursts) * cfg.BurstEvery
	killAt := horizon * 3 / 10
	// Victim choice draws from its own derived stream, so it is a pure
	// function of the seed — not of anything the arms do.
	victims := rand.New(rand.NewSource(DeriveSeed(cfg.Seed, 7331))).Perm(cfg.Shards)[:cfg.Kills]
	res := ShardFailoverResult{
		Shards:  cfg.Shards,
		SBCs:    cfg.Shards * cfg.WorkersPerShard,
		Kills:   cfg.Kills,
		KillAtS: killAt.Seconds(),
		Victims: victims,
	}
	arms, err := RunParallel(Parallelism(cfg.Parallel), 2, func(i int) (ShardFailoverArm, error) {
		return runShardFailoverArm(cfg, i == 1, victims, killAt, horizon, DeriveSeed(cfg.Seed, i))
	})
	if err != nil {
		return ShardFailoverResult{}, err
	}
	res.Arms = arms
	return res, nil
}

// runShardFailoverArm drives one arm: the shared timed submission
// schedule, plus — on the failover arm — the kill schedule.
func runShardFailoverArm(cfg ShardFailoverConfig, churn bool, victims []int, killAt, horizon time.Duration, seed int64) (ShardFailoverArm, error) {
	arm := ShardFailoverArm{Name: "static"}
	scfg := shard.Config{
		Steal: shard.StealConfig{Enabled: true, MaxPerTick: 4096},
	}
	if churn {
		arm.Name = "failover"
		scfg.Membership = shard.MembershipConfig{
			Enabled: true,
			OnDeath: func(int) { arm.Deaths++ },
		}
	}
	simCfg := cluster.SimConfig{
		Seed:   seed,
		Policy: core.AssignLeastLoaded,
	}
	if cfg.SLO != nil {
		simCfg.Telemetry = telemetry.New()
	}
	s, err := cluster.NewShardedMicroFaaSSim(cfg.Shards, cfg.WorkersPerShard, simCfg, scfg)
	if err != nil {
		return ShardFailoverArm{}, err
	}
	var store *tsdb.Store
	if cfg.SLO != nil {
		store = tsdb.New(tsdb.Config{})
		if err := store.SetRules(cfg.SLO); err != nil {
			return ShardFailoverArm{}, err
		}
		s.AttachTSDB(store)
	}
	fns := model.Functions()
	settled := 0
	for b := 0; b < cfg.Bursts; b++ {
		b := b
		s.Engine.At(time.Duration(b)*cfg.BurstEvery, func() {
			for j := 0; j < cfg.JobsPerBurst; j++ {
				n := b*cfg.JobsPerBurst + j
				key := "u/" + strconv.Itoa(n%cfg.KeySpace)
				id, _ := s.Plane.Submit(key, fns[n%len(fns)].Name, nil, func(core.Result) { settled++ })
				if id != 0 {
					arm.Accepted++
				}
			}
		})
	}
	if churn {
		// Kills land one aggregator interval apart — a rolling host loss,
		// not one simultaneous blackout.
		for i, si := range victims {
			s.ScheduleKill(killAt+time.Duration(i)*shard.DefaultStealInterval, si)
		}
	}
	if store != nil {
		// Tick-hook scrapes stop with the ticks once the backlog drains;
		// keep sampling past the horizon so the SLO engine sees the
		// recovered windows and records the resolution (3× covers a
		// saturated run's drain tail plus the longest demo window).
		// Same-instant overlaps with tick scrapes are no-ops.
		for t := horizon; t <= 3*horizon; t += 500 * time.Millisecond {
			at := t
			s.Engine.At(at, func() { store.Scrape(at) })
		}
	}
	if err := s.Run(); err != nil {
		return ShardFailoverArm{}, err
	}
	arm.Lost = arm.Accepted - settled
	st := s.Stats()
	arm.Completed = st.Completed
	arm.Errors = st.Errors
	arm.Stolen = st.Stolen
	arm.P99S = st.P99.Seconds()
	arm.JoulesPerFunc = st.JoulesPerFunction
	arm.MakespanS = st.MakespanS

	// Rate windows, fixed by the submission schedule so both arms use
	// identical intervals: pre-kill excludes the cold-start ramp,
	// post-recovery starts well after the kills to let re-homing finish.
	preLo, preHi := horizon/10, killAt
	postLo, postHi := horizon/2, horizon
	sum := s.Summary()
	arm.PrePerMin = float64(sum.CountFinished(preLo, preHi)) / (preHi - preLo).Minutes()
	arm.PostPerMin = float64(sum.CountFinished(postLo, postHi)) / (postHi - postLo).Minutes()
	if arm.PrePerMin > 0 {
		arm.Recovery = arm.PostPerMin / arm.PrePerMin
	}
	if store != nil {
		arm.Alerts = store.AlertHistory()
		if arm.Alerts == nil {
			arm.Alerts = []tsdb.Event{}
		}
	}
	return arm, nil
}

// WriteShardFailover prints the two-arm comparison.
func WriteShardFailover(w io.Writer, r ShardFailoverResult) error {
	out := &printer{w: w}
	out.f(`Shard failover (%d shards × %d SBCs, %d shards killed at t=%.1fs, victims %v):
  arm        accepted  lost  deaths    stolen   pre/min  post/min  recovery     p99 s   J/func
`, r.Shards, r.SBCs/r.Shards, r.Kills, r.KillAtS, r.Victims)
	for _, a := range r.Arms {
		out.f("  %-9s %9d %5d %7d %9d %9.0f %9.0f %9.3f %9.2f %8.2f\n",
			a.Name, a.Accepted, a.Lost, a.Deaths, a.Stolen, a.PrePerMin, a.PostPerMin, a.Recovery, a.P99S, a.JoulesPerFunc)
	}
	for _, a := range r.Arms {
		if a.Alerts == nil {
			continue
		}
		if err := WriteAlertTimeline(w, a.Name, a.Alerts); err != nil {
			return err
		}
	}
	return out.err
}

// WriteAlertTimeline prints one arm's SLO alert transitions in
// virtual-clock order (or a "(none)" marker, so a run with rules but no
// transitions is visibly distinct from a run without rules).
func WriteAlertTimeline(w io.Writer, arm string, alerts []tsdb.Event) error {
	out := &printer{w: w}
	out.f("  %s alert timeline:\n", arm)
	if len(alerts) == 0 {
		out.f("    (none)\n")
	}
	for _, ev := range alerts {
		out.f("    t=%7.2fs %-14s %-20s %-5s %s\n",
			ev.AtMs/1000, ev.Type, ev.Function, ev.Worker, ev.Detail)
	}
	return out.err
}

package cluster

import (
	"fmt"

	"microfaas/internal/core"
	"microfaas/internal/gpio"
	"microfaas/internal/kvstore"
	"microfaas/internal/mq"
	"microfaas/internal/node"
	"microfaas/internal/objstore"
	"microfaas/internal/power"
	"microfaas/internal/powermgr"
	"microfaas/internal/sqlstore"
	"microfaas/internal/telemetry"
	"microfaas/internal/trace"
	"microfaas/internal/workload"
)

// LiveOptions tunes a live cluster.
type LiveOptions struct {
	// Workers is the node count (default 4).
	Workers int
	// LiveBoardConfig is every worker's modeled reboot and fault spec,
	// handed to worker i whole with the fault seed Faults.Seed+i.
	node.LiveBoardConfig
	// Seed drives the OP's random assignment.
	Seed int64
	// Meter enables wall-clock power accounting when true.
	Meter bool
	// AttemptPolicy is the OP's retries, deadlines (on the wall clock),
	// backoff, breakers and budget hold (see core.AttemptPolicy).
	core.AttemptPolicy
	// Telemetry enables the metrics registry across the
	// OP, the workers, and (when Meter is on) the power meter. Nil
	// disables instrumentation entirely.
	Telemetry *telemetry.Telemetry
	// Tracer is not read: every job in the record window has a trace,
	// rendered from the collector's rows (trace.Traces). It stays so code
	// that still sets it compiles.
	Tracer *trace.Tracer
	// Policy selects the OP's queue-assignment policy (default
	// AssignRandom, the paper's).
	Policy core.AssignPolicy
	// Power enables the dynamic power-management plane: workers run
	// managed — powered off until the OP wakes them (a wake pays
	// BootDelay of real wall-clock time), powered down after the policy's
	// idle timeout — and every power-state transition lands in the
	// cluster's GPIO audit log.
	Power *powermgr.Policy
	// ShardLabel names this cluster's orchestrator as one shard of a
	// larger deployment (see core.Config.ShardLabel); JobIDBase gives it
	// a disjoint job-id space so ids stay cluster-unique when several
	// live clusters sit behind one shard.Plane. No binary sets them until
	// microfaas-live assembles a sharded plane.
	ShardLabel string
	JobIDBase  int64
}

// liveRecordWindow is how many of the most recent per-invocation records a
// live orchestrator keeps (≈4.7 MB of 72-byte rows, plus the text of each
// retained failure): a live process serves until it is stopped, so an
// append-only log there is a leak, while a finite simulation reads its
// whole table back and keeps every record.
// Lifetime totals survive the window (trace.Collector.Len/ErrorCount).
const liveRecordWindow = 64 * 1024

// Live is a running in-process MicroFaaS deployment: four real backing
// services, N real TCP workers executing the real workload functions, and
// the orchestration platform wired over them.
type Live struct {
	Env     *workload.Env
	Orch    *core.Orchestrator
	Runtime core.WallRuntime
	Meter   *power.Meter
	Workers []*node.LiveWorker
	// Telemetry is the cluster's metrics registry (nil
	// when LiveOptions.Telemetry was nil).
	Telemetry *telemetry.Telemetry
	// PowerMgr is the dynamic power-management plane and GPIO its power
	// audit log (both nil unless LiveOptions.Power was set).
	PowerMgr *powermgr.Manager
	GPIO     *gpio.Controller

	// services are the started backing services, in start order.
	services []service
}

// service is the lifecycle every backing service's server shares.
type service interface {
	Listen(addr string) (string, error)
	Close() error
}

// StartLive boots the full stack on loopback TCP, its stores holding the
// workload fixture (workload.SeedStores). Always Close a started cluster.
func StartLive(opts LiveOptions) (*Live, error) {
	n := opts.Workers
	if n == 0 {
		n = 4
	}
	if n < 0 {
		return nil, fmt.Errorf("cluster: negative worker count %d", n)
	}
	l := &Live{Runtime: core.NewWallRuntime(), Telemetry: opts.Telemetry}
	if opts.Meter {
		l.Meter = power.NewMeter()
	}
	registerMeterMetrics(opts.Telemetry, l.Meter, l.Runtime.Now)
	ok := false
	defer func() {
		if !ok {
			l.Close()
		}
	}()

	// Seeded before they listen: no client sees a half-written fixture.
	sql, obj, broker := sqlstore.NewServer(), objstore.NewServer(), mq.NewServer()
	if err := workload.SeedStores(sql.Database(), obj.Store(), broker.Broker()); err != nil {
		return nil, err
	}
	l.Env = &workload.Env{}
	for _, b := range []struct {
		srv  service
		addr *string
	}{
		{kvstore.NewServer(), &l.Env.KVStoreAddr},
		{sql, &l.Env.SQLStoreAddr},
		{obj, &l.Env.ObjStoreAddr},
		{broker, &l.Env.MQAddr},
	} {
		l.services = append(l.services, b.srv)
		addr, err := b.srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		*b.addr = addr
	}

	if opts.Power != nil {
		l.GPIO = gpio.NewController()
	}
	workers := make([]core.Worker, 0, n)
	for i := 0; i < n; i++ {
		// Meter readings, events and power transitions all stamp on the
		// cluster clock.
		cfg := node.LiveWorkerConfig{
			ID:              fmt.Sprintf("live-%03d", i),
			Env:             l.Env,
			LiveBoardConfig: opts.LiveBoardConfig,
			Meter:           l.Meter,
			Clock:           l.Runtime.Now,
			Telemetry:       opts.Telemetry,
			Managed:         opts.Power != nil,
			GPIO:            l.GPIO,
		}
		cfg.Faults.Seed += int64(i)
		w, err := node.StartLiveWorker(cfg)
		if err != nil {
			return nil, err
		}
		l.Workers = append(l.Workers, w)
		workers = append(workers, w)
	}
	cc := core.Config{
		Runtime:       l.Runtime,
		Workers:       workers,
		Collector:     trace.NewWindowCollector(liveRecordWindow),
		Seed:          opts.Seed,
		Policy:        opts.Policy,
		AttemptPolicy: opts.AttemptPolicy,
		Telemetry:     opts.Telemetry,
		ShardLabel:    opts.ShardLabel,
		JobIDBase:     opts.JobIDBase,
	}
	if opts.Power != nil {
		pm, err := newPowerManager(l.Runtime, l.Workers, *opts.Power, opts.Telemetry)
		if err != nil {
			return nil, err
		}
		l.PowerMgr = pm
		cc.PowerManager = pm
	}
	orch, err := core.New(cc)
	if err != nil {
		return nil, err
	}
	l.Orch = orch
	ok = true
	return l, nil
}

// Close tears down workers and services. Safe to call more than once and
// on partially-started clusters.
func (l *Live) Close() {
	for _, w := range l.Workers {
		w.Close() //nolint:errcheck
	}
	l.Workers = nil
	for i := len(l.services) - 1; i >= 0; i-- {
		l.services[i].Close() //nolint:errcheck
	}
	l.services = nil
}

package powermgr

import (
	"microfaas/internal/telemetry"
)

// Metric names the power manager owns (see DESIGN.md §7 for the catalogue
// and the label-cardinality rules).
const (
	// metricWorkersPowered is the cluster-wide powered-node count (Up or
	// Waking), evaluated at scrape time.
	metricWorkersPowered = "microfaas_workers_powered"
	// metricWorkerPowered is the per-worker 0/1 powered gauge faasctl top
	// renders its worker rows from.
	metricWorkerPowered = "microfaas_worker_powered"
	metricCapWatts      = "microfaas_power_cap_watts"
	metricWakes         = "microfaas_power_wakes_total"
	metricDowns         = "microfaas_power_downs_total"
	metricCapDeferred   = "microfaas_power_cap_deferred_total"
	// metricPrewarmTarget is the predictive warm floor last set through
	// SetWarmTarget, in nodes (0 while predictive control is off).
	metricPrewarmTarget = "microfaas_power_prewarm_target"
)

// mgrMetrics holds the manager's pre-created metric handles and its
// per-reason and per-worker family handles. Every handle no-ops on nil, so
// the zero value is the disabled-instrumentation path.
type mgrMetrics struct {
	wakes         *telemetry.Counter
	capDeferred   *telemetry.Counter
	prewarmTarget *telemetry.Gauge
	downs         *telemetry.Family // label reason
	powered       *telemetry.Family // label worker: 0/1
}

// initTelemetry pre-creates the manager's metric families so every
// per-worker series is present (at zero) from the first scrape. The two
// cluster-level readings are func-backed and evaluated at scrape time.
func (m *Manager) initTelemetry(tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	reg := tel.Registry()
	reg.GaugeFunc(metricWorkersPowered,
		"Workers currently powered (booting or up); the rest draw only off-state power.",
		func() float64 { return float64(m.PoweredUp()) })
	reg.GaugeFunc(metricCapWatts,
		"Active cluster power cap in watts (0 = uncapped).",
		func() float64 { return float64(m.CapW()) })
	m.m = mgrMetrics{
		wakes: reg.Counter(metricWakes,
			"Wake-on-demand power-ups issued by the power manager."),
		capDeferred: reg.Counter(metricCapDeferred,
			"Wakes parked in the FIFO because the power cap was binding."),
		prewarmTarget: reg.Gauge(metricPrewarmTarget,
			"Predictive warm floor in nodes last set by the forecast controller (0 = predictive control off)."),
		downs: reg.CounterFamily(metricDowns,
			"Power-downs issued by the power manager, by reason.", "reason"),
		powered: reg.GaugeFamily(metricWorkerPowered,
			"1 while the worker is powered (booting or up), 0 while powered off.", "worker"),
	}
	for _, reason := range []string{"idle", "fault", "drain", "predictive"} {
		m.m.downs.Counter(reason)
	}
	for _, n := range m.order {
		m.m.powered.Gauge(n.node.ID())
	}
}

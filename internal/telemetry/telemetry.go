// Package telemetry is the platform's metrics layer: a dependency-free
// metrics registry with Prometheus text-format exposition. The
// invocation lifecycle itself (queue, boot, exec, settle, retry) is
// recorded once, in the trace collector's rows (internal/trace).
//
// The paper's headline claim is an energy number — 5.7 J/function on the
// SBC cluster — so energy is a first-class exported signal here, not a
// post-hoc computation: workers attribute metered joules to the function
// that consumed them, and the gateway serves the running counters at
// GET /metrics (microfaas_function_energy_joules_total{function=...}).
//
// Everything in this package is nil-safe: a nil *Telemetry, *Registry,
// *Counter, *Gauge or *Histogram turns every method into a no-op, so
// instrumented code paths need no guards and a disabled telemetry layer
// costs one nil check per call site. Telemetry never consumes randomness
// or schedules events, so enabling it leaves seeded simulation runs
// bit-identical.
package telemetry

// Telemetry is a cluster's handle on its metrics registry. The zero of
// *Telemetry (nil) is a valid, fully disabled instance.
type Telemetry struct {
	registry *Registry
}

// New returns an enabled Telemetry.
func New() *Telemetry {
	return &Telemetry{registry: NewRegistry()}
}

// Registry returns the metrics registry (nil when telemetry is disabled).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.registry
}

package node

import "microfaas/internal/telemetry"

// Worker-owned metric names (see DESIGN.md §7). Energy attribution is the
// headline: each finished job banks the joules its worker's meter device
// accumulated between job start and finish, labeled by function, so
// microfaas_function_energy_joules_total reproduces the paper's
// J/function figure live instead of post-hoc. Jobs that never finish
// (injected hangs) burn power the cluster-level meter still sees but no
// function is charged for — the same asymmetry the trace collector has.
const (
	metricBoots    = "microfaas_worker_boots_total"
	metricFaults   = "microfaas_fault_injections_total"
	metricFnEnergy = "microfaas_function_energy_joules_total"

	helpBoots    = "Job starts per worker, split cold (paid the boot) vs warm (skipped it)."
	helpFaults   = "Injected worker faults by kind (crash, hang, error, slow)."
	helpFnEnergy = "Metered joules attributed to the function that consumed them."
)

// workerFamilies are the worker families' handles, resolved once for the
// workers that share them (a NewSimWorkers batch, or one live worker), so
// each worker registers its series, and each job finds its function's
// joules counter, through its family. Nil when telemetry is off.
type workerFamilies struct {
	boots, faults, energy *telemetry.Family
}

// newWorkerFamilies returns tel's worker family handles, or nil.
func newWorkerFamilies(tel *telemetry.Telemetry) *workerFamilies {
	if tel == nil {
		return nil
	}
	reg := tel.Registry()
	return &workerFamilies{
		boots:  reg.CounterFamily(metricBoots, helpBoots, "worker", "kind"),
		faults: reg.CounterFamily(metricFaults, helpFaults, "worker", "kind"),
		energy: reg.CounterFamily(metricFnEnergy, helpFnEnergy, "function"),
	}
}

// workerMetrics holds a worker's pre-created handles. The zero value is
// the disabled path: every handle no-ops on nil, so call sites need no
// guards.
type workerMetrics struct {
	fam        *workerFamilies
	bootsCold  *telemetry.Counter
	bootsWarm  *telemetry.Counter
	faultCrash *telemetry.Counter
	faultHang  *telemetry.Counter
	faultError *telemetry.Counter
	faultSlow  *telemetry.Counter
}

// worker pre-creates one worker's series so they are present (at zero)
// from the first scrape.
func (fam *workerFamilies) worker(workerID string) workerMetrics {
	if fam == nil {
		return workerMetrics{}
	}
	return workerMetrics{
		fam:        fam,
		bootsCold:  fam.boots.Counter(workerID, "cold"),
		bootsWarm:  fam.boots.Counter(workerID, "warm"),
		faultCrash: fam.faults.Counter(workerID, "crash"),
		faultHang:  fam.faults.Counter(workerID, "hang"),
		faultError: fam.faults.Counter(workerID, "error"),
		faultSlow:  fam.faults.Counter(workerID, "slow"),
	}
}

// energy returns the per-function joules counter, created lazily:
// functions are an open set, unlike workers.
func (m workerMetrics) energy(function string) *telemetry.Counter {
	if m.fam == nil {
		return nil
	}
	return m.fam.energy.Counter(function)
}

package core

import "sort"

// Per-function energy budgets (the FaasMeter idea transplanted onto the
// bare-metal cluster): every attempt's worker-metered joules are charged
// to its function, and a function that spends through its cap is pushed
// to the back of the energy line — the energy-aware policy stops waking
// nodes for it. Budgets never reject work: an exhausted function still
// runs, only on hardware that is already powered.

// SetEnergyBudget sets or updates a function's energy cap at runtime.
// Raising the cap above the joules already spent clears the exhausted
// latch; joules <= 0 removes the budget (and all enforcement) entirely.
// Spending already charged is retained across updates.
func (o *Orchestrator) SetEnergyBudget(function string, joules float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.setBudgetLocked(function, joules)
}

// setBudgetLocked installs, updates, or removes one budget and refreshes
// its telemetry series. Caller holds o.mu.
func (o *Orchestrator) setBudgetLocked(function string, joules float64) {
	if joules <= 0 {
		if _, ok := o.budgets[function]; ok {
			delete(o.budgets, function)
			o.noteBudgetLocked(function, 0, 0, false)
		}
		return
	}
	b, ok := o.budgets[function]
	if !ok {
		b = &fnBudget{}
		o.budgets[function] = b
	}
	b.limit = joules
	b.exhausted = b.spent >= b.limit
	o.noteBudgetLocked(function, b.limit, b.spent, b.exhausted)
}

// chargeEnergyLocked accounts one attempt's metered joules against its
// function's budget (no-op for unbudgeted functions and unmetered
// workers). Caller holds o.mu.
func (o *Orchestrator) chargeEnergyLocked(function string, joules float64) {
	b, ok := o.budgets[function]
	if !ok || joules <= 0 {
		return
	}
	b.spent += joules
	if !b.exhausted && b.spent >= b.limit {
		b.exhausted = true
	}
	o.noteBudgetLocked(function, b.limit, b.spent, b.exhausted)
}

// EnergyBudgets returns every budgeted function's accounting snapshot,
// sorted by function name.
func (o *Orchestrator) EnergyBudgets() []BudgetStatus {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]BudgetStatus, 0, len(o.budgets))
	for fn, b := range o.budgets {
		out = append(out, BudgetStatus{
			Function:    fn,
			LimitJoules: b.limit,
			SpentJoules: b.spent,
			Exhausted:   b.exhausted,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Function < out[j].Function })
	return out
}

package gateway

import (
	"net/http"

	"microfaas/internal/core"
	"microfaas/internal/workload"
)

// shardBudgets is one shard's energy-budget rows inside the /budgets
// reply.
type shardBudgets struct {
	Shard   string              `json:"shard"`
	Budgets []core.BudgetStatus `json:"budgets"`
}

// handleForecast serves GET /forecast: the forecast controller's latest
// snapshot — mode, smoothed error ratio, warm-pool target, and the
// per-function rate/EWMA/ahead table.
func (s *Server) handleForecast(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.forecast.Snapshot())
}

// handleBudgets serves GET /budgets: every budgeted function's
// limit/spent/exhausted rows, one {"shard","budgets"} row per shard.
func (s *Server) handleBudgets(w http.ResponseWriter, _ *http.Request) {
	out := make([]shardBudgets, len(s.shards))
	for i, sh := range s.shards {
		out[i] = shardBudgets{Shard: sh.label, Budgets: sh.orch.EnergyBudgets()}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSetBudget serves POST /budgets with body {"function": "...",
// "limit_j": N}: it sets or updates that function's budget (N <= 0 removes
// it) on every shard — work stealing can land any function anywhere — and
// replies like GET /budgets.
func (s *Server) handleSetBudget(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Function string  `json:"function"`
		LimitJ   float64 `json:"limit_j"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Function == "" {
		writeError(w, http.StatusBadRequest, "function name required")
		return
	}
	// Each budgeted name adds per-shard gauges the registry never drops, so
	// only a function that exists may have one.
	if _, err := workload.Get(req.Function); err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	for _, sh := range s.shards {
		sh.orch.SetEnergyBudget(req.Function, req.LimitJ)
	}
	s.handleBudgets(w, r)
}

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
// per-function rate/EWMA/ahead table. Clusters running without a
// predictor (no Options.Forecast) answer 404.
func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.forecast == nil {
		writeError(w, http.StatusNotFound, "prediction disabled on this cluster")
		return
	}
	writeJSON(w, http.StatusOK, s.forecast.Snapshot())
}

// handleBudgets serves the per-function energy-budget config:
//
//	GET  /budgets  every budgeted function's limit/spent/exhausted rows
//	POST /budgets  {"function": "...", "limit_j": N} sets or updates one
//	               budget (N <= 0 removes it) and returns the fresh rows
//
// The reply is one {"shard","budgets"} row per shard, and a POST applies
// to every shard (work stealing can land any function anywhere).
func (s *Server) handleBudgets(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
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
		// Each budgeted name adds per-shard gauges the registry never
		// drops, so only a function that exists may have one.
		if _, err := workload.Get(req.Function); err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		for _, sh := range s.shards {
			sh.orch.SetEnergyBudget(req.Function, req.LimitJ)
		}
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST required")
		return
	}
	out := make([]shardBudgets, len(s.shards))
	for i, sh := range s.shards {
		out[i] = shardBudgets{Shard: sh.label, Budgets: sh.orch.EnergyBudgets()}
	}
	writeJSON(w, http.StatusOK, out)
}

package main

import (
	"fmt"

	"microfaas/internal/forecast"
)

// forecastTable renders GET /forecast: the controller's mode and error
// accounting, then one row per tracked function with its observed and
// forecast arrival rates.
func (c *client) forecastTable() error {
	var snap forecast.Snapshot
	if err := c.getJSON("/forecast", &snap); err != nil {
		return err
	}
	trend := "rising/flat"
	if snap.Declining {
		trend = "declining"
	}
	// The error ratio is sMAPE-scaled [0,2]; halved it reads roughly as
	// a MAPE percentage.
	fmt.Fprintf(c.out, "mode %s  target %d workers  trend %s  error %.3f (~%.1f%% MAPE)  fallbacks %d  ticks %d  horizon %.0fms\n",
		snap.Mode, snap.Target, trend, snap.ErrorRatio, 50*snap.ErrorRatio, snap.Fallbacks, snap.Ticks, snap.HorizonMs)
	if len(snap.Functions) == 0 {
		fmt.Fprintln(c.out, "no functions tracked yet")
		return nil
	}
	fmt.Fprintf(c.out, "%-16s %10s %10s %10s %9s %8s\n",
		"function", "rate/s", "ewma/s", "ahead/s", "workers", "error")
	for _, f := range snap.Functions {
		fmt.Fprintf(c.out, "%-16s %10.3f %10.3f %10.3f %9.2f %8.3f\n",
			f.Function, f.Rate, f.EWMA, f.RateAhead, f.Workers, f.ErrorRatio)
	}
	return nil
}

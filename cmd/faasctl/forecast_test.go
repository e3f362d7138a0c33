package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"microfaas/internal/forecast"
)

// TestForecastCommand renders the forecast table against a fake gateway
// snapshot.
func TestForecastCommand(t *testing.T) {
	body, err := json.Marshal(forecast.Snapshot{
		Mode: "predictive", ErrorRatio: 0.135, Target: 4, Declining: true,
		Fallbacks: 1, Ticks: 1440, TickMs: 5000, HorizonMs: 2000,
		Functions: []forecast.FunctionForecast{
			{Function: "CascSHA", Rate: 0.42, EWMA: 0.40, RateAhead: 0.38, Workers: 1.61, ErrorRatio: 0.12},
			{Function: "AES128", Rate: 0.11, EWMA: 0.10, RateAhead: 0.09, Workers: 0.38, ErrorRatio: 0.15},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/forecast", func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	var sb strings.Builder
	c := &client{base: srv.URL, http: srv.Client(), out: &sb}
	if err := c.run([]string{"forecast"}); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"mode predictive", "target 4 workers", "trend declining",
		"error 0.135 (~6.8% MAPE)", "fallbacks 1",
		"CascSHA", "AES128", "0.420", "0.380",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("forecast output missing %q:\n%s", want, got)
		}
	}
}

// TestForecastCommandDisabled surfaces the gateway's 404 body when the
// cluster runs without a predictor, and fails.
func TestForecastCommandDisabled(t *testing.T) {
	c, out := startManagedStack(t)
	if err := c.run([]string{"forecast"}); err == nil {
		t.Fatal("forecast against a 404 succeeded")
	}
	if got := out.String(); !strings.Contains(got, "prediction disabled") {
		t.Fatalf("forecast output = %s, want the 404 body", got)
	}
}

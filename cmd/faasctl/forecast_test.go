package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestForecastCommand renders the forecast table against a fake gateway
// snapshot.
func TestForecastCommand(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/forecast", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"mode":"predictive","error_ratio":0.135,"target_workers":4,
			"declining":true,"fallbacks_total":1,"ticks":1440,"tick_ms":5000,"horizon_ms":2000,
			"functions":[
				{"function":"CascSHA","rate_per_s":0.42,"ewma_per_s":0.40,"rate_ahead_per_s":0.38,"workers":1.61,"error_ratio":0.12},
				{"function":"AES128","rate_per_s":0.11,"ewma_per_s":0.10,"rate_ahead_per_s":0.09,"workers":0.38,"error_ratio":0.15}
			]}`)
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

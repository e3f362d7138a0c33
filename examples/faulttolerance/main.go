// Fault tolerance: inject worker faults into a simulated MicroFaaS
// cluster and show the orchestrator's retry policy masking them — the
// operational upside of hardware-isolated workers (a fault stays on its
// node; the OP just reassigns the job to a different board).
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"
	"net/http"
	"time"

	"microfaas"
)

func main() {
	const faultRate = 0.25

	fmt.Printf("injecting faults into %.0f%% of jobs on a 10-SBC cluster\n\n", faultRate*100)
	fmt.Printf("%-22s %10s %10s %12s\n", "policy", "jobs", "failed", "goodput/min")
	for _, attempts := range []int{1, 2, 4} {
		label := "no retries (paper)"
		if attempts > 1 {
			label = fmt.Sprintf("up to %d attempts", attempts)
		}
		jobs, failed, goodput := run(faultRate, attempts)
		fmt.Printf("%-22s %10d %10d %12.1f\n", label, jobs, failed, goodput)
	}

	fmt.Println("\nretries re-run failed jobs on a different board; the per-job failure")
	fmt.Printf("probability drops from %.0f%% to %.2f%% at 4 attempts (0.25^4).\n",
		faultRate*100, 100*faultRate*faultRate*faultRate*faultRate)

	hangDemo()
	metricsDemo()
}

// metricsDemo runs a clean cluster with telemetry enabled, scrapes the
// gateway's /metrics endpoint the way a Prometheus server would, and
// prints the paper's J/function headline from the scraped counters —
// cross-checked against the same number derived offline from the trace
// collector and the Appendix power model.
func metricsDemo() {
	tel := microfaas.NewTelemetry()
	s, err := microfaas.NewMicroFaaSSim(10, microfaas.SimOptions{Seed: 42, Telemetry: tel})
	if err != nil {
		log.Fatal(err)
	}
	coll, err := s.RunSuite(5, nil)
	if err != nil {
		log.Fatal(err)
	}

	gw, err := microfaas.NewGateway(s.Orch, microfaas.GatewayOptions{Mode: "sim"})
	if err != nil {
		log.Fatal(err)
	}
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := microfaas.ParseMetrics(resp.Body)
	if err != nil {
		log.Fatal(err)
	}

	// The same joules, two independent ways: scraped from the per-function
	// energy counters, and reconstructed from trace records priced at the
	// Appendix draw constants (boot seconds at boot draw, overhead+exec at
	// busy draw).
	sbc := microfaas.DefaultSBCPowerModel()
	var scraped, derived float64
	invocations := 0
	for _, r := range coll.Records() {
		derived += r.Boot.Seconds()*float64(sbc.Power(microfaas.PowerBooting)) +
			(r.Overhead+r.Exec).Seconds()*float64(sbc.Power(microfaas.PowerBusy))
		invocations++
	}
	for _, fn := range microfaas.FunctionNames() {
		j, ok := samples.Value("microfaas_function_energy_joules_total", "function", fn)
		if !ok {
			log.Fatalf("no energy counter for %s", fn)
		}
		scraped += j
	}

	fmt.Printf("\nscraping /metrics on a clean 10-SBC run (%d invocations)\n\n", invocations)
	fmt.Printf("%-38s %10.2f J\n", "energy scraped from /metrics", scraped)
	fmt.Printf("%-38s %10.2f J\n", "energy derived from trace collector", derived)
	fmt.Printf("%-38s %9.3f%%\n", "disagreement", 100*(scraped-derived)/derived)
	fmt.Printf("%-38s %10.2f J  (paper: %.1f)\n", "J/function",
		scraped/float64(invocations), microfaas.PaperMicroFaaSJoules)
	fmt.Println("\nthe counters and the trace agree: metered energy attribution is the")
	fmt.Println("same measurement as the offline trace analysis, available live.")
}

// hangDemo injects wedges: workers that power on, take the job, and never
// report back. A wedge is worse than a clean fault — there is no error to
// retry on — so masking it takes the full failure path: a per-invocation
// deadline to detect it, a retry to re-run the job elsewhere, and a
// circuit breaker to stop assigning work to the wedged board.
func hangDemo() {
	const hangRate = 0.02

	fmt.Printf("\nwedging workers mid-job on %.0f%% of invocations\n\n", hangRate*100)

	// Without deadlines the cluster cannot even drain: the wedged workers
	// hold their queues forever.
	wedging := microfaas.BoardConfig{Faults: microfaas.FaultPolicy{HangProb: hangRate}}
	s, err := microfaas.NewMicroFaaSSim(10, microfaas.SimOptions{Seed: 42, BoardConfig: wedging})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := s.RunSuite(20, nil); err != nil {
		fmt.Printf("%-22s %s\n", "no deadlines", err)
	} else {
		fmt.Printf("%-22s run unexpectedly drained\n", "no deadlines")
	}

	// With deadlines + retries + the breaker the same seed completes: every
	// wedge costs one timed-out attempt, the job finishes on another board,
	// and the wedged board is ejected from assignment.
	s, err = microfaas.NewMicroFaaSSim(10, microfaas.SimOptions{
		Seed:        42,
		BoardConfig: wedging,
		AttemptPolicy: microfaas.AttemptPolicy{
			MaxAttempts:      4,
			JobTimeout:       10 * time.Minute,
			BreakerThreshold: 1,
			BreakerProbe:     1000 * time.Hour,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := s.RunSuite(20, nil); err != nil {
		log.Fatal(err)
	}
	wedges := 0
	for _, w := range s.Workers {
		wedges += w.Hangs()
	}
	jobs, lost := 0, 0
	finalErr := map[int64]bool{}
	for _, r := range s.Orch.Collector().Records() {
		finalErr[r.JobID] = r.Err != ""
	}
	for _, bad := range finalErr {
		jobs++
		if bad {
			lost++
		}
	}
	ejected := 0
	for _, h := range s.Orch.Health() {
		if h.State == microfaas.BreakerOpen {
			ejected++
		}
	}
	fmt.Printf("%-22s %d jobs, %d wedges hit, %d jobs lost, %d boards ejected\n",
		"deadline + breaker", jobs, wedges, lost, ejected)
	fmt.Println("\nthe deadline converts a silent wedge into a retryable timeout; the")
	fmt.Println("breaker keeps new work off the wedged board until it is probed again.")
}

// run drives one cluster configuration and reports job-level outcomes.
func run(faultRate float64, maxAttempts int) (jobs, failed int, goodputPerMin float64) {
	opts := microfaas.SimOptions{Seed: 42}
	opts.Faults.ErrorProb = faultRate
	opts.MaxAttempts = maxAttempts
	s, err := microfaas.NewMicroFaaSSim(10, opts)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := s.RunSuite(20, nil); err != nil {
		log.Fatal(err)
	}
	// Group attempts by job id; a job fails only if its final attempt did.
	finalErr := map[int64]bool{}
	for _, r := range s.Orch.Collector().Records() {
		finalErr[r.JobID] = r.Err != ""
	}
	for _, bad := range finalErr {
		jobs++
		if bad {
			failed++
		}
	}
	st := s.Stats()
	return jobs, failed, float64(jobs-failed) / (st.MakespanS / 60)
}

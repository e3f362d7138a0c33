// Quickstart: boot a live in-process MicroFaaS cluster — real backing
// services, real TCP workers — and invoke workload functions through the
// orchestration platform.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"microfaas"
)

func main() {
	// A 4-worker MicroFaaS deployment with a 25 ms simulated reboot
	// between jobs (the BeagleBone pays 1.51 s; see -boot-delay on
	// cmd/microfaas-live for paper-faithful pacing).
	cl, err := microfaas.StartLiveCluster(microfaas.LiveOptions{
		Workers:         4,
		LiveBoardConfig: microfaas.LiveBoardConfig{BootDelay: 25 * time.Millisecond},
		Meter:           true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	fmt.Printf("cluster up: %d single-tenant run-to-completion workers\n\n", len(cl.Workers))

	// Invoke a CPU-bound function with explicit arguments...
	out := invoke(cl, "CascSHA", []byte(`{"rounds":2500,"seed":"microfaas"}`))
	fmt.Printf("CascSHA     → %s\n", out)

	// ...a network-bound function against the real KV service...
	out = invoke(cl, "RedisInsert", []byte(`{"key":"user:42","value":"quickstart"}`))
	fmt.Printf("RedisInsert → %s\n", out)

	// ...and a few generated invocations of the whole suite.
	rng := rand.New(rand.NewSource(7))
	for _, f := range microfaas.Functions()[:5] {
		cl.Orch.Submit(f.Name, f.GenArgs(rng))
	}
	cl.Orch.Quiesce()

	fmt.Println("\nper-function statistics:")
	for _, st := range cl.Orch.Collector().ByFunction() {
		fmt.Printf("  %-12s ×%d  exec %v, overhead %v\n",
			st.Function, st.Count,
			st.MeanExec.Round(time.Microsecond),
			st.MeanOverhead.Round(time.Microsecond))
	}
	energy := cl.Meter.TotalEnergy(cl.Runtime.Now())
	fmt.Printf("\nmodelled cluster energy so far: %.3f J\n", float64(energy))
}

// invoke submits one job and waits for its result.
func invoke(cl *microfaas.LiveCluster, fn string, args []byte) string {
	done := make(chan string, 1)
	cl.Orch.SubmitAsync(fn, args, func(res microfaas.InvocationResult) {
		if res.Err != "" {
			done <- "ERROR: " + res.Err
			return
		}
		done <- string(res.Output)
	})
	select {
	case s := <-done:
		return s
	case <-time.After(time.Minute):
		return "TIMEOUT"
	}
}

// Energy proportionality (Fig 5): compare cluster power draw as workers
// activate, on the simulator. The MicroFaaS cluster's powered-down nodes
// draw ≈0.13 W each, so power tracks load almost perfectly linearly; the
// rack server burns 60 W before it runs a single function.
//
//	go run ./examples/energyproportional
package main

import (
	"fmt"
	"log"
	"strings"

	"microfaas"
)

func main() {
	pts, err := microfaas.Fig5(microfaas.Fig5Config{MaxWorkers: 10, RunConfig: microfaas.RunConfig{Seed: 1}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("cluster power vs active workers (10-node clusters)")
	fmt.Printf("%-8s %-12s %-42s %-12s\n", "active", "microfaas", "", "conventional")
	maxW := pts[len(pts)-1].ConventionalWatts
	for _, p := range pts {
		fmt.Printf("%-8d %8.2f W  %-42s %8.2f W  %s\n",
			p.ActiveWorkers,
			p.MicroFaaSWatts, bar(p.MicroFaaSWatts, maxW, 40),
			p.ConventionalWatts, bar(p.ConventionalWatts, maxW, 40))
	}

	idle, full := pts[0], pts[len(pts)-1]
	fmt.Printf("\nidle draw:  MicroFaaS %.2f W vs conventional %.2f W (%.0fx)\n",
		idle.MicroFaaSWatts, idle.ConventionalWatts,
		idle.ConventionalWatts/idle.MicroFaaSWatts)
	mfRange := full.MicroFaaSWatts - idle.MicroFaaSWatts
	convRange := full.ConventionalWatts - idle.ConventionalWatts
	fmt.Printf("dynamic range used for actual work: MicroFaaS %.0f%% of peak vs conventional %.0f%%\n",
		mfRange/full.MicroFaaSWatts*100, convRange/full.ConventionalWatts*100)
}

// bar renders a proportional ASCII bar.
func bar(v, max float64, width int) string {
	n := int(v / max * float64(width))
	if n < 1 && v > 0 {
		n = 1
	}
	return strings.Repeat("█", n)
}

// Adaptive cruise controller: show CoEfficient's cooperative scheduling on
// the ACC workload (paper Table III) — event-triggered messages riding
// stolen static-segment slack instead of waiting for the dynamic segment —
// by sweeping the dynamic segment size and comparing dynamic latencies.
package main

import (
	"fmt"
	"log"
	"time"

	coefficient "github.com/flexray-go/coefficient"
)

const seed = 7

func main() {
	sae, err := coefficient.SAEAperiodic(coefficient.SAEAperiodicOptions{FirstID: 31, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	set, err := coefficient.MergeWorkloads("acc+sae", coefficient.ACC(), sae)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s  %-12s  %-14s  %-14s  %-14s\n",
		"minislots", "scheduler", "dyn mean", "dyn p99", "stolen slots")
	for _, minislots := range []int{25, 50, 100} {
		setup, err := coefficient.DeriveLatencySetup(set, 30, minislots)
		if err != nil {
			log.Fatal(err)
		}
		co := coefficient.NewCoEfficient(coefficient.SchedulerOptions{BER: 1e-7, Goal: 0.999})
		for _, sched := range []coefficient.Scheduler{
			co,
			coefficient.NewFSPEC(coefficient.FSPECOptions{}),
		} {
			res, err := coefficient.Simulate(coefficient.SimOptions{
				Config:   setup.Config,
				Workload: set,
				BitRate:  setup.BitRate,
				Mode:     coefficient.Streaming,
				Duration: time.Second,
			}, coefficient.ReplicaOptions{Seed: seed}, sched)
			if err != nil {
				log.Fatal(err)
			}
			stolen := "-"
			if sched == coefficient.Scheduler(co) {
				stolen = fmt.Sprintf("%d soft / %d retx",
					co.Stats().StolenSoft, co.Stats().StolenStatic)
			}
			fmt.Printf("%-10d  %-12s  %-14v  %-14v  %-14s\n",
				minislots, res.Scheduler,
				res.Report.MeanLatency[coefficient.DynamicSegment],
				res.Report.P99Latency[coefficient.DynamicSegment],
				stolen)
		}
	}
	fmt.Println("\nCoEfficient serves event-triggered frames in idle static slots;")
	fmt.Println("FSPEC must wait for the dynamic segment and its FTDMA slot counter.")
}

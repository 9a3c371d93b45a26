// Quickstart: run the Brake-By-Wire workload through the CoEfficient
// scheduler for one simulated second and print the delivery report.
package main

import (
	"fmt"
	"log"
	"time"

	coefficient "github.com/flexray-go/coefficient"
)

func main() {
	// The paper's Table II workload plus the SAE aperiodic set (frame IDs
	// just above the 30 static slots of the 1 ms cycle).
	sae, err := coefficient.SAEAperiodic(coefficient.SAEAperiodicOptions{FirstID: 31, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	set, err := coefficient.MergeWorkloads("quickstart", coefficient.BBW(), sae)
	if err != nil {
		log.Fatal(err)
	}

	// Derive a 1 ms cycle (0.75 ms static, 50 minislots) and the bus
	// speed needed to carry the workload.
	setup, err := coefficient.DeriveLatencySetup(set, 30, 50)
	if err != nil {
		log.Fatal(err)
	}

	// Transient faults at the paper's BER-7 rate on both channels.
	injA, err := coefficient.NewBERInjector(1e-7, 1)
	if err != nil {
		log.Fatal(err)
	}
	injB, err := coefficient.NewBERInjector(1e-7, 2)
	if err != nil {
		log.Fatal(err)
	}

	sched := coefficient.NewCoEfficient(coefficient.SchedulerOptions{
		BER:  1e-7,
		Goal: 0.999,
	})
	res, err := coefficient.Simulate(coefficient.SimOptions{
		Config:   setup.Config,
		Workload: set,
		BitRate:  setup.BitRate,
		Mode:     coefficient.Streaming,
		Duration: time.Second,
	}, coefficient.ReplicaOptions{Seed: 1, InjectorA: injA, InjectorB: injB}, sched)
	if err != nil {
		log.Fatal(err)
	}

	r := res.Report
	fmt.Printf("scheduler:          %s\n", res.Scheduler)
	fmt.Printf("bus speed:          %d Mbit/s\n", setup.BitRate/1_000_000)
	fmt.Printf("delivered:          %d static, %d dynamic\n",
		r.Delivered[coefficient.StaticSegment], r.Delivered[coefficient.DynamicSegment])
	fmt.Printf("mean latency:       %v static, %v dynamic\n",
		r.MeanLatency[coefficient.StaticSegment], r.MeanLatency[coefficient.DynamicSegment])
	fmt.Printf("deadline misses:    %.4f%%\n", 100*r.OverallMissRatio())
	fmt.Printf("faults seen:        %d (retransmissions: %d)\n", r.Faults, r.Retransmissions)
	fmt.Printf("bandwidth utilized: %.2f%% useful, %.2f%% raw\n",
		100*r.BandwidthUtilization, 100*r.RawUtilization)
	fmt.Printf("planned retx (k_z): %d total across %d messages\n",
		sched.Stats().PlannedRetx, len(set.Messages))
}

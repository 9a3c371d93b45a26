// Brake-by-wire: compare CoEfficient against the FSPEC baseline on the
// paper's safety-critical BBW workload (Table II) under transient faults,
// reporting the metrics of the paper's evaluation — latency per segment,
// deadline misses and bandwidth.
package main

import (
	"fmt"
	"log"
	"time"

	coefficient "github.com/flexray-go/coefficient"
)

const (
	ber  = 1e-7
	goal = 0.999
	seed = 42
)

func main() {
	sae, err := coefficient.SAEAperiodic(coefficient.SAEAperiodicOptions{FirstID: 31, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	set, err := coefficient.MergeWorkloads("bbw+sae", coefficient.BBW(), sae)
	if err != nil {
		log.Fatal(err)
	}
	setup, err := coefficient.DeriveLatencySetup(set, 30, 50)
	if err != nil {
		log.Fatal(err)
	}

	schedulers := []coefficient.Scheduler{
		coefficient.NewCoEfficient(coefficient.SchedulerOptions{BER: ber, Goal: goal}),
		coefficient.NewFSPEC(coefficient.FSPECOptions{Copies: 2}),
	}

	fmt.Printf("%-12s  %-12s  %-12s  %-10s  %-10s  %-8s\n",
		"scheduler", "static lat", "dynamic lat", "misses", "useful bw", "faults")
	for _, sched := range schedulers {
		injA, err := coefficient.NewBERInjector(ber, coefficient.DeriveSeed(seed, 1))
		if err != nil {
			log.Fatal(err)
		}
		injB, err := coefficient.NewBERInjector(ber, coefficient.DeriveSeed(seed, 2))
		if err != nil {
			log.Fatal(err)
		}
		res, err := coefficient.Simulate(coefficient.SimOptions{
			Config:   setup.Config,
			Workload: set,
			BitRate:  setup.BitRate,
			Mode:     coefficient.Streaming,
			Duration: 2 * time.Second,
		}, coefficient.ReplicaOptions{Seed: seed, InjectorA: injA, InjectorB: injB}, sched)
		if err != nil {
			log.Fatal(err)
		}
		r := res.Report
		fmt.Printf("%-12s  %-12v  %-12v  %-10.4f  %-10.4f  %-8d\n",
			res.Scheduler,
			r.MeanLatency[coefficient.StaticSegment],
			r.MeanLatency[coefficient.DynamicSegment],
			r.OverallMissRatio(),
			r.BandwidthUtilization,
			r.Faults)
	}
}

package experiment

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/sim/batch"
	"github.com/flexray-go/coefficient/internal/workload"
)

// latencyStaticSlots is the static slot count of the 1 ms cycle used by
// Figures 3 and 5 and the real-world rows of Figure 4 (0.75 ms static at 25
// macroticks per slot).
const latencyStaticSlots = 30

// syntheticStaticSlots is the slot count for Figure 4's synthetic rows: the
// paper plots static frame IDs 1..80.
const syntheticStaticSlots = 80

// latencyWorkload assembles a streaming workload: the given static set plus
// the SAE aperiodic set with frame IDs starting just above the static slot
// range, so the FTDMA slot counter can actually reach them (the paper's IDs
// 81-110 sit above its 80 static slots for the same reason).
func latencyWorkload(static signal.Set, staticSlots int, seed uint64) (signal.Set, error) {
	sae, err := workload.SAEAperiodic(workload.SAEAperiodicOptions{
		FirstID: staticSlots + 1,
		Count:   30,
		Seed:    seed,
	})
	if err != nil {
		return signal.Set{}, err
	}
	return workload.Merge(static.Name+"+sae", static, sae)
}

// latencySetups memoizes LatencySetup per minislot coordinate: one
// feasibility analysis per dynamic segment size, shared read-only by
// every sweep cell at that coordinate.
func latencySetups(set signal.Set, staticSlots int, minislots []int) ([]Setup, error) {
	setups := make([]Setup, len(minislots))
	for j, ms := range minislots {
		setup, err := LatencySetup(set, staticSlots, ms)
		if err != nil {
			return nil, err
		}
		setups[j] = setup
	}
	return setups, nil
}

// runStreaming runs one streaming simulation.
func runStreaming(set signal.Set, setup Setup, sc Scenario, sched sim.Scheduler, seed uint64, quick bool) (sim.Result, error) {
	injA, injB, err := injectors(sc, seed)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Run(sim.Options{
		Config:   setup.Config,
		Workload: set,
		BitRate:  setup.BitRate,
		Mode:     sim.Streaming,
		Duration: streamDuration(quick),
	}, sim.ReplicaOptions{Seed: seed, InjectorA: injA, InjectorB: injB}, sched)
}

// UtilizationRow is one point of Figure 3.
type UtilizationRow struct {
	// Minislots is the dynamic segment size.
	Minislots int
	// Scheduler is the policy name.
	Scheduler string
	// Efficiency is useful wire time over all wire time — the paper's
	// "ratio of the bandwidth that is actually used to the whole
	// bandwidth" (redundant copies and faulted attempts are not "actually
	// used").
	Efficiency float64
	// Useful and Raw are the utilization components over total channel
	// capacity.
	Useful, Raw float64
}

// UtilizationOptions configures the Figure 3 harness.
type UtilizationOptions struct {
	// Scenario defaults to BER7.
	Scenario Scenario
	// Seed drives arrivals and faults.
	Seed uint64
	// Quick shrinks the horizon.
	Quick bool
	// Minislots lists the swept dynamic segment sizes (default 25, 50,
	// 75, 100).
	Minislots []int
	// Parallel is the sweep worker count: 0 uses every core, 1 runs
	// serially.  The rows are identical for every value.
	Parallel int
	// Ctx optionally bounds the sweep: every cell checks it before
	// starting, so a deadline or cancellation stops the run at the next
	// cell boundary.  Nil means run to completion.
	Ctx context.Context
}

func (o *UtilizationOptions) fill() {
	if o.Scenario.Label == "" {
		o.Scenario = BER7()
	}
	if len(o.Minislots) == 0 {
		o.Minislots = []int{25, 50, 75, 100}
	}
}

// Utilization reproduces Figure 3: bandwidth utilization of both schedulers
// as the dynamic segment grows from 25 to 100 minislots, on the BBW + SAE
// workload.
func Utilization(opts UtilizationOptions) ([]UtilizationRow, error) {
	opts.fill()
	set, err := latencyWorkload(workload.BBW(), latencyStaticSlots, opts.Seed)
	if err != nil {
		return nil, err
	}
	// One setup per minislot coordinate, derived up front: LatencySetup
	// runs a feasibility analysis of the whole static schedule, so
	// rebuilding it inside every (minislots, scheduler) cell repeated
	// that work nSched times per coordinate.
	setups, err := latencySetups(set, latencyStaticSlots, opts.Minislots)
	if err != nil {
		return nil, err
	}
	// Cell = (minislots, scheduler); the shared set and setups are
	// read-only, every cell derives its own scheduler and injectors.
	const nSched = 2
	cells := len(opts.Minislots) * nSched
	return runner.MapCtx(opts.Ctx, opts.Parallel, cells, func(i int) (UtilizationRow, error) {
		ms := opts.Minislots[i/nSched]
		setup := setups[i/nSched]
		sched := schedulers(set, opts.Scenario)[i%nSched]
		res, err := runStreaming(set, setup, opts.Scenario, sched, opts.Seed, opts.Quick)
		if err != nil {
			return UtilizationRow{}, fmt.Errorf("fig3 %d minislots: %w", ms, err)
		}
		eff := 0.0
		if res.Report.RawUtilization > 0 {
			eff = res.Report.BandwidthUtilization / res.Report.RawUtilization
		}
		return UtilizationRow{
			Minislots:  ms,
			Scheduler:  res.Scheduler,
			Efficiency: eff,
			Useful:     res.Report.BandwidthUtilization,
			Raw:        res.Report.RawUtilization,
		}, nil
	})
}

// UtilizationTable renders Figure 3 rows.
func UtilizationTable(rows []UtilizationRow) Table {
	t := Table{
		Title:  "Figure 3: bandwidth utilization vs minislots",
		Header: []string{"minislots", "scheduler", "efficiency", "useful", "raw"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Minislots),
			r.Scheduler,
			fmt.Sprintf("%.3f", r.Efficiency),
			fmt.Sprintf("%.4f", r.Useful),
			fmt.Sprintf("%.4f", r.Raw),
		})
	}
	return t
}

// LatencyRow is one point of Figure 4.
type LatencyRow struct {
	// Workload is "synthetic", "BBW" or "ACC".
	Workload string
	// Segment says whether the row covers static or dynamic messages.
	Segment metrics.SegmentKind
	// Minislots is the dynamic segment size (50 or 100).
	Minislots int
	// Scenario is the reliability setting label.
	Scenario string
	// Scheduler is the policy name.
	Scheduler string
	// Mean is the average delivery latency.
	Mean time.Duration
	// P99 is the tail latency.
	P99 time.Duration
}

// LatencyOptions configures the Figure 4 harness.
type LatencyOptions struct {
	// Scenarios defaults to {BER7, BER9}.
	Scenarios []Scenario
	// Seed drives arrivals and faults.
	Seed uint64
	// Quick shrinks the horizon.
	Quick bool
	// Minislots defaults to {50, 100}.
	Minislots []int
	// Workloads defaults to {"synthetic", "BBW", "ACC"}.
	Workloads []string
	// SyntheticMessages is the synthetic static set size (default 80, the
	// paper's frame IDs 1..80).
	SyntheticMessages int
	// Parallel is the sweep worker count: 0 uses every core, 1 runs
	// serially.  The rows are identical for every value.
	Parallel int
	// Ctx optionally bounds the sweep: every cell checks it before
	// starting, so a deadline or cancellation stops the run at the next
	// cell boundary.  Nil means run to completion.
	Ctx context.Context
}

func (o *LatencyOptions) fill() {
	if len(o.Scenarios) == 0 {
		o.Scenarios = []Scenario{BER7(), BER9()}
	}
	if len(o.Minislots) == 0 {
		o.Minislots = []int{50, 100}
	}
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"synthetic", "BBW", "ACC"}
	}
	if o.SyntheticMessages <= 0 {
		o.SyntheticMessages = syntheticStaticSlots
	}
}

// latencyCell is one independent point of the Figure 4 sweep.
type latencyCell struct {
	workload string
	ms       int
	sc       Scenario
	schedIdx int
}

// Latency reproduces Figure 4: average transmission latency of static and
// dynamic segments for the synthetic, BBW and ACC workloads at 50 and 100
// minislots under both reliability settings.  Cells run on Parallel
// workers, each rebuilding its workload and setup from the options alone.
func Latency(opts LatencyOptions) ([]LatencyRow, error) {
	opts.fill()
	// Workload sets and setups are functions of (workload, minislots)
	// alone, so they are built once up front — per coordinate, not per
	// cell — and shared read-only by the sweep.
	type latencyWork struct {
		set    signal.Set
		setups []Setup // parallel to opts.Minislots
	}
	works := make(map[string]latencyWork, len(opts.Workloads))
	msIdx := make(map[int]int, len(opts.Minislots))
	for j, ms := range opts.Minislots {
		msIdx[ms] = j
	}
	for _, wl := range opts.Workloads {
		staticSet, staticSlots, err := latencyStaticSet(wl, opts)
		if err != nil {
			return nil, err
		}
		set, err := latencyWorkload(staticSet, staticSlots, opts.Seed)
		if err != nil {
			return nil, err
		}
		setups, err := latencySetups(set, staticSlots, opts.Minislots)
		if err != nil {
			return nil, err
		}
		works[wl] = latencyWork{set: set, setups: setups}
	}
	var cells []latencyCell
	for _, wl := range opts.Workloads {
		for _, ms := range opts.Minislots {
			for _, sc := range opts.Scenarios {
				for schedIdx := 0; schedIdx < 2; schedIdx++ {
					cells = append(cells, latencyCell{workload: wl, ms: ms, sc: sc, schedIdx: schedIdx})
				}
			}
		}
	}
	return runner.FlatMapCtx(opts.Ctx, opts.Parallel, len(cells), func(i int) ([]LatencyRow, error) {
		c := cells[i]
		w := works[c.workload]
		set := w.set
		setup := w.setups[msIdx[c.ms]]
		sched := schedulers(set, c.sc)[c.schedIdx]
		res, err := runStreaming(set, setup, c.sc, sched, opts.Seed, opts.Quick)
		if err != nil {
			return nil, fmt.Errorf("fig4 %s/%d/%s: %w", c.workload, c.ms, c.sc.Label, err)
		}
		rows := make([]LatencyRow, 0, 2)
		for _, seg := range []metrics.SegmentKind{metrics.Static, metrics.Dynamic} {
			rows = append(rows, LatencyRow{
				Workload:  c.workload,
				Segment:   seg,
				Minislots: c.ms,
				Scenario:  c.sc.Label,
				Scheduler: res.Scheduler,
				Mean:      res.Report.MeanLatency[seg],
				P99:       res.Report.P99Latency[seg],
			})
		}
		return rows, nil
	})
}

func latencyStaticSet(wl string, opts LatencyOptions) (signal.Set, int, error) {
	switch wl {
	case "BBW":
		return workload.BBW(), latencyStaticSlots, nil
	case "ACC":
		return workload.ACC(), latencyStaticSlots, nil
	case "synthetic":
		syn, err := workload.Synthetic(workload.SyntheticOptions{
			Messages: opts.SyntheticMessages,
			Seed:     deriveSeed(opts.Seed, seedStreamSynthetic, uint64(opts.SyntheticMessages)),
		})
		if err != nil {
			return signal.Set{}, 0, err
		}
		return syn, syntheticStaticSlots, nil
	default:
		return signal.Set{}, 0, fmt.Errorf("%w: unknown workload %q", ErrSetup, wl)
	}
}

// LatencyTable renders Figure 4 rows.
func LatencyTable(rows []LatencyRow) Table {
	t := Table{
		Title:  "Figure 4: average transmission latency",
		Header: []string{"workload", "segment", "minislots", "scenario", "scheduler", "mean", "p99"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Workload,
			r.Segment.String(),
			fmt.Sprintf("%d", r.Minislots),
			r.Scenario,
			r.Scheduler,
			r.Mean.String(),
			r.P99.String(),
		})
	}
	return t
}

// MissRow is one point of Figure 5.
type MissRow struct {
	// Minislots is the dynamic segment size.
	Minislots int
	// Scenario is the reliability setting label.
	Scenario string
	// Scheduler is the policy name.
	Scheduler string
	// MissRatio is late deliveries plus drops over all instances (the
	// mean over Replicas seeds).
	MissRatio float64
	// StdDev is the across-replica standard deviation (0 for a single
	// replica).
	StdDev float64
	// Replicas is the number of seeds aggregated.
	Replicas int
}

// MissOptions configures the Figure 5 harness.
type MissOptions struct {
	// Scenarios defaults to {BER7, BER9}.
	Scenarios []Scenario
	// Seed drives arrivals and faults; replica r runs at the derived
	// seed deriveSeed(Seed, seedStreamReplica, r), so replicas are
	// statistically independent and never collide across base seeds.
	Seed uint64
	// Quick shrinks the horizon.
	Quick bool
	// Minislots defaults to {25, 50, 75, 100}.
	Minislots []int
	// Replicas averages each point over this many seeds (default 1).
	Replicas int
	// Parallel is the sweep worker count: 0 uses every core, 1 runs
	// serially.  The rows are identical for every value.
	Parallel int
	// Ctx optionally bounds the sweep: every cell checks it before
	// starting, so a deadline or cancellation stops the run at the next
	// cell boundary.  Nil means run to completion.
	Ctx context.Context
}

func (o *MissOptions) fill() {
	if len(o.Scenarios) == 0 {
		o.Scenarios = []Scenario{BER7(), BER9()}
	}
	if len(o.Minislots) == 0 {
		o.Minislots = []int{25, 50, 75, 100}
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
}

// MissRatio reproduces Figure 5: deadline miss ratios on the BBW + SAE
// workload across dynamic segment sizes and reliability settings.  Each
// (minislots, scenario, scheduler) point is one batch.Spec whose seeds
// are the derived replica seeds.  The simulation compiles once per
// minislot coordinate and every point there shares the *sim.Compiled;
// the pool runs all replicas of a point back to back on one reused run
// state and returns results in canonical spec-major order, keeping mean
// and stddev independent of the parallelism degree — and byte-identical
// to the old one-engine-per-replica sweep, which the differential tests
// pin.
func MissRatio(opts MissOptions) ([]MissRow, error) {
	opts.fill()
	set, err := latencyWorkload(workload.BBW(), latencyStaticSlots, opts.Seed)
	if err != nil {
		return nil, err
	}
	// One setup (feasibility analysis + bit-rate derivation) per
	// minislot coordinate, not per cell.
	setups, err := latencySetups(set, latencyStaticSlots, opts.Minislots)
	if err != nil {
		return nil, err
	}
	seeds := make([]uint64, opts.Replicas)
	for r := range seeds {
		seeds[r] = deriveSeed(opts.Seed, seedStreamReplica, uint64(r))
	}
	type missPoint struct {
		ms       int
		sc       Scenario
		schedIdx int
	}
	var points []missPoint
	var specs []batch.Spec
	for j, ms := range opts.Minislots {
		setup := setups[j]
		compiled, err := sim.Compile(sim.Options{
			Config:   setup.Config,
			Workload: set,
			BitRate:  setup.BitRate,
			Mode:     sim.Streaming,
			Duration: streamDuration(opts.Quick),
		})
		if err != nil {
			return nil, fmt.Errorf("fig5: %w", err)
		}
		for _, sc := range opts.Scenarios {
			for schedIdx := 0; schedIdx < 2; schedIdx++ {
				sc, schedIdx := sc, schedIdx
				points = append(points, missPoint{ms: ms, sc: sc, schedIdx: schedIdx})
				specs = append(specs, batch.Spec{
					Compiled: compiled,
					NewScheduler: func() (sim.Scheduler, error) {
						return schedulers(set, sc)[schedIdx], nil
					},
					Seeds:   seeds,
					Replica: scenarioReplica(sc),
				})
			}
		}
	}
	groups, err := batch.Run(opts.Ctx, opts.Parallel, specs)
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	rows := make([]MissRow, 0, len(points))
	for p, point := range points {
		group := groups[p]
		vals := make([]float64, len(group))
		for r, res := range group {
			vals[r] = res.Report.OverallMissRatio()
		}
		mean, std := meanStd(vals)
		rows = append(rows, MissRow{
			Minislots: point.ms,
			Scenario:  point.sc.Label,
			Scheduler: group[len(group)-1].Scheduler,
			MissRatio: mean,
			StdDev:    std,
			Replicas:  opts.Replicas,
		})
	}
	return rows, nil
}

// scenarioReplica builds a batch.Spec per-replica hook for a scenario:
// channel injectors seeded from the replica seed's channel streams,
// reusing the previous replica's BER injectors via Reseed when their
// rate matches — Reseed(s) is contractually indistinguishable from a
// fresh NewBERInjector(ber, s), but keeps the memoized per-frame-size
// failure probabilities warm across replicas.
func scenarioReplica(sc Scenario) func(i int, seed uint64, prevA, prevB fault.Injector) (sim.ReplicaOptions, error) {
	return func(_ int, seed uint64, prevA, prevB fault.Injector) (sim.ReplicaOptions, error) {
		a, okA := prevA.(*fault.BERInjector)
		b, okB := prevB.(*fault.BERInjector)
		if okA && okB && a.BER() == sc.BER && b.BER() == sc.BER {
			a.Reseed(deriveSeed(seed, seedStreamChannelA, 0))
			b.Reseed(deriveSeed(seed, seedStreamChannelB, 0))
			return sim.ReplicaOptions{Seed: seed, InjectorA: a, InjectorB: b}, nil
		}
		injA, injB, err := injectors(sc, seed)
		if err != nil {
			return sim.ReplicaOptions{}, err
		}
		return sim.ReplicaOptions{Seed: seed, InjectorA: injA, InjectorB: injB}, nil
	}
}

// meanStd returns the mean and population standard deviation.
func meanStd(samples []float64) (float64, float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(len(samples))
	if len(samples) < 2 {
		return mean, 0
	}
	var ss float64
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(samples)))
}

// MissTable renders Figure 5 rows.
func MissTable(rows []MissRow) Table {
	t := Table{
		Title:  "Figure 5: deadline miss ratio",
		Header: []string{"minislots", "scenario", "scheduler", "miss ratio", "stddev", "replicas"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Minislots),
			r.Scenario,
			r.Scheduler,
			fmt.Sprintf("%.4f", r.MissRatio),
			fmt.Sprintf("%.4f", r.StdDev),
			fmt.Sprintf("%d", r.Replicas),
		})
	}
	return t
}

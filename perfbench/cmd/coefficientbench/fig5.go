package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"github.com/flexray-go/coefficient/internal/core"
	"github.com/flexray-go/coefficient/internal/experiment"
	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/fspec"
	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/workload"
)

// Seed streams: every program input derives from --seed through
// runner.CellSeed(seed, stream, index).
const (
	streamFig5 uint64 = 1 + iota
	streamSweep
	streamDaemonJob
	streamDaemonRepeat
)

// fig5Replicas is the Monte-Carlo depth of one timed fig5 grid call:
// deep enough that compile and dispatch are amortised, shallow enough
// that a run times some fifty calls.
func fig5Replicas(cfg config) int {
	if cfg.quick {
		return 2
	}
	return 4
}

// missRatio is the Figure 5 entry point over the paper's full grid.
func missRatio(seed uint64, replicas, parallel int, quick bool) ([]experiment.MissRow, error) {
	return experiment.MissRatio(experiment.MissOptions{
		Seed: seed, Quick: quick, Replicas: replicas, Parallel: parallel,
	})
}

// runFig5 is the untraced fig5-mc workload: repeated Figure 5 grid
// calls (4 minislot sizes × BER-7/BER-9 × CoEfficient/FSPEC) at the
// paper's 2 s streaming horizon, every one checked against a 1-worker
// reference made before the timed phase.
func runFig5(b *bench, cfg config) error {
	seed := runner.CellSeed(cfg.seed, streamFig5, 0)
	reps := fig5Replicas(cfg)
	ref, err := missRatio(seed, reps, 1, cfg.quick)
	if !b.op(err) {
		return nil
	}

	suite, err := newSuiteTables()
	if err != nil {
		return err
	}
	suite.run() // maps the tables' pages in
	heap := startHeapSampler()
	calls, suites, setups := windowedRun(cfg.seconds,
		func() {
			_, err := missRatio(seed, 1, procs(), cfg.quick)
			b.op(err)
		},
		func() {
			rows, err := missRatio(seed, reps, procs(), cfg.quick)
			if b.op(err) {
				b.check(reflect.DeepEqual(rows, ref), "fig5-mc: parallel grid differs from the 1-worker reference")
			}
		}, suite.run)
	peak := maxOf(heap.Stop())
	if err := suite.close(); err != nil {
		return err
	}

	perCall := float64(len(ref) * reps)
	rates := make([]float64, len(calls))
	for i, d := range calls {
		rates[i] = perCall / d.Seconds()
	}
	perSec := adjusted(median(rates), suites)
	ms := scaled(seconds(calls), 1e3)
	tailMs, pct := tail(ms)
	b.set("throughput_per_s", perSec)
	b.set("live_heap_mb", peak)
	b.set("setup_s", median(seconds(setups)))
	b.notef("fig5-mc replicas_per_s=%.2f at reference host speed (as measured %.2f; reference suite median %.1fms, %.0fms nominal) grid_calls=%d replicas_per_call=%.0f call_p50_ms=%.1f call_tail_ms=%.1f (p%.4g) setup(1-replica grid)=%.3fs",
		perSec, median(rates), 1e3*median(seconds(suites)), 1e3*refSuite.Seconds(), len(calls), perCall, median(ms), tailMs, pct, median(seconds(setups)))
	return nil
}

// fig5Point is one Figure 5 grid point, in MissRatio's canonical order.
type fig5Point struct {
	ms    int
	sc    experiment.Scenario
	fspec bool
}

func fig5Points() []fig5Point {
	var pts []fig5Point
	for _, ms := range []int{25, 50, 75, 100} {
		for _, sc := range []experiment.Scenario{experiment.BER7(), experiment.BER9()} {
			pts = append(pts, fig5Point{ms, sc, false}, fig5Point{ms, sc, true})
		}
	}
	return pts
}

// The Figure 5 harness's constants and seed streams, rebuilt from its
// documented conventions (internal/experiment/seed.go) so the grid can
// be driven through sim.Compile / NewState / Reset / Run directly.  The
// traced pass checks the rebuilt rows against experiment.MissRatio, so
// any drift here fails the benchmark instead of skewing it.
const (
	fig5StaticSlots          = 30
	fig5SAEMessages          = 30
	fig5StreamReplica uint64 = 1
	fig5StreamChanA   uint64 = 3
	fig5StreamChanB   uint64 = 4
)

// fig5Probes, when non-nil, wraps every layer of the direct grid run.
type fig5Probes struct {
	scheds []*schedProbe
	injs   []*injProbe
	sink   *sinkProbe
}

// fig5Timing accumulates the direct timings of the engine entry points.
type fig5Timing struct {
	compile, newState, reset, run []time.Duration
	cycles                        int64
	delivered, missed             int64
	mallocs                       uint64
	replicas                      int
}

// fig5Direct runs the Figure 5 grid serially on the engine's batch API,
// timing each entry point, with optional probes around the scheduler,
// injectors and trace sink.  Its rows equal experiment.MissRatio's.
func fig5Direct(seed uint64, replicas int, quick bool, probes *fig5Probes) ([]experiment.MissRow, *fig5Timing, error) {
	sae, err := workload.SAEAperiodic(workload.SAEAperiodicOptions{
		FirstID: fig5StaticSlots + 1, Count: fig5SAEMessages, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	bbw := workload.BBW()
	set, err := workload.Merge(bbw.Name+"+sae", bbw, sae)
	if err != nil {
		return nil, nil, err
	}
	horizon := 2 * time.Second
	if quick {
		horizon = 300 * time.Millisecond
	}
	seeds := make([]uint64, replicas)
	for r := range seeds {
		seeds[r] = runner.CellSeed(seed, fig5StreamReplica, uint64(r))
	}

	tm := &fig5Timing{}
	var rows []experiment.MissRow
	compiled := map[int]*sim.Compiled{}
	for _, pt := range fig5Points() {
		comp, ok := compiled[pt.ms]
		if !ok {
			setup, err := experiment.LatencySetup(set, fig5StaticSlots, pt.ms)
			if err != nil {
				return nil, nil, err
			}
			t0 := time.Now()
			comp, err = sim.Compile(sim.Options{
				Config: setup.Config, Workload: set, BitRate: setup.BitRate,
				Mode: sim.Streaming, Duration: horizon,
			})
			tm.compile = append(tm.compile, time.Since(t0))
			if err != nil {
				return nil, nil, err
			}
			compiled[pt.ms] = comp
		}

		var sched sim.Scheduler
		if pt.fspec {
			sched = fspec.New(fspec.Options{Copies: experiment.FSPECCopies(set, pt.sc, 0)})
		} else {
			sched = core.New(core.Options{BER: pt.sc.BER, Goal: pt.sc.Goal, Unit: experiment.PlanUnit})
		}
		injA, err := fault.NewBERInjector(pt.sc.BER, 0)
		if err != nil {
			return nil, nil, err
		}
		injB, err := fault.NewBERInjector(pt.sc.BER, 0)
		if err != nil {
			return nil, nil, err
		}
		var a, bInj fault.Injector = injA, injB
		var ro sim.ReplicaOptions
		if probes != nil {
			sp := &schedProbe{inner: sched, fspec: pt.fspec}
			probes.scheds = append(probes.scheds, sp)
			sched = sp
			pa, pb := &injProbe{inner: injA}, &injProbe{inner: injB}
			probes.injs = append(probes.injs, pa, pb)
			a, bInj = pa, pb
			ro.Sink = probes.sink
		}

		t0 := time.Now()
		st, err := comp.NewState(sched)
		tm.newState = append(tm.newState, time.Since(t0))
		if err != nil {
			return nil, nil, err
		}
		vals := make([]float64, len(seeds))
		var last sim.Result
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for r, rs := range seeds {
			injA.Reseed(runner.CellSeed(rs, fig5StreamChanA, 0))
			injB.Reseed(runner.CellSeed(rs, fig5StreamChanB, 0))
			ro.Seed, ro.InjectorA, ro.InjectorB = rs, a, bInj
			t0 := time.Now()
			err := st.Reset(ro)
			tm.reset = append(tm.reset, time.Since(t0))
			if err != nil {
				return nil, nil, err
			}
			t0 = time.Now()
			last, err = st.Run()
			tm.run = append(tm.run, time.Since(t0))
			if err != nil {
				return nil, nil, err
			}
			vals[r] = last.Report.OverallMissRatio()
			tm.cycles += last.Cycles
			for kind, n := range last.Report.Delivered {
				tm.delivered += n
				total := n + last.Report.Dropped[kind]
				tm.missed += int64(math.Round(last.Report.DeadlineMissRatio[kind] * float64(total)))
			}
		}
		runtime.ReadMemStats(&ms1)
		tm.mallocs += ms1.Mallocs - ms0.Mallocs
		tm.replicas += len(seeds)
		mu, sd := meanStd(vals)
		rows = append(rows, experiment.MissRow{
			Minislots: pt.ms, Scenario: pt.sc.Label, Scheduler: last.Scheduler,
			MissRatio: mu, StdDev: sd, Replicas: replicas,
		})
	}
	return rows, tm, nil
}

// meanStd is the Figure 5 harness's mean and population standard
// deviation, in its summation order so the rows compare bit for bit.
func meanStd(samples []float64) (float64, float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mu := sum / float64(len(samples))
	if len(samples) < 2 {
		return mu, 0
	}
	var ss float64
	for _, v := range samples {
		d := v - mu
		ss += d * d
	}
	return mu, math.Sqrt(ss / float64(len(samples)))
}

// missRowsEqual compares two grids bit for bit, naming the first
// difference.
func missRowsEqual(a, b []experiment.MissRow) error {
	if reflect.DeepEqual(a, b) {
		return nil
	}
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("row %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return fmt.Errorf("rows differ")
}

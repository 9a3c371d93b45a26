package sim_test

import (
	"reflect"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/core"
	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/fspec"
	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/trace"
)

// allKinds enumerates every event kind for count comparisons.
var allKinds = []trace.EventKind{
	trace.EventRelease, trace.EventTxStart, trace.EventTxEnd,
	trace.EventFault, trace.EventRetransmit, trace.EventDrop,
	trace.EventDeadlineMiss, trace.EventReplan, trace.EventFailover,
	trace.EventShed, trace.EventNodeDown, trace.EventNodeUp,
	trace.EventClockCorrection, trace.EventSyncLoss,
	trace.EventGuardianBlock, trace.EventPOCState,
}

// randomSinkWorkload builds one seeded random workload/config pair in the
// shape of the invariants suite.
func randomSinkWorkload(rng *fault.RNG) (timebase.Config, signal.Set) {
	cfg := timebase.Config{
		MacrotickDuration:         time.Microsecond,
		MacroPerCycle:             1000,
		StaticSlots:               6 + rng.Intn(8),
		StaticSlotLen:             timebase.Macrotick(30 + rng.Intn(30)),
		Minislots:                 20 + rng.Intn(30),
		MinislotLen:               timebase.Macrotick(2 + rng.Intn(4)),
		DynamicSlotIdlePhase:      1,
		MinislotActionPointOffset: 1,
	}
	for cfg.StaticSegmentLen()+cfg.DynamicSegmentLen() > cfg.MacroPerCycle {
		cfg.Minislots /= 2
	}

	var msgs []signal.Message
	nStatic := 2 + rng.Intn(cfg.StaticSlots-1)
	for i := 0; i < nStatic; i++ {
		periodMs := 1 << rng.Intn(3)
		msgs = append(msgs, signal.Message{
			ID: i + 1, Name: "s", Node: i % 5, Kind: signal.Periodic,
			Period:   time.Duration(periodMs) * time.Millisecond,
			Deadline: time.Duration(periodMs) * time.Millisecond,
			Bits:     8 * (1 + rng.Intn(8)),
		})
	}
	nDyn := 1 + rng.Intn(3)
	for i := 0; i < nDyn; i++ {
		msgs = append(msgs, signal.Message{
			ID: cfg.StaticSlots + 1 + i, Name: "d", Node: i % 5, Kind: signal.Aperiodic,
			Period:   5 * time.Millisecond,
			Deadline: 5 * time.Millisecond,
			Bits:     8 * (1 + rng.Intn(6)),
			Priority: i + 1,
		})
	}
	return cfg, signal.Set{Name: "rand-sink", Messages: msgs}
}

// runWithSink executes one run of the trial's configuration with the
// given sink installed.
func runWithSink(t *testing.T, cfg timebase.Config, set signal.Set,
	seed uint64, mk func() sim.Scheduler, sink trace.Sink) sim.Result {
	t.Helper()
	injA, err := fault.NewBERInjector(1e-4, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Options{
		Config:   cfg,
		Workload: set,
		Mode:     sim.Streaming,
		Duration: 30 * time.Millisecond,
	}, sim.ReplicaOptions{Seed: seed, InjectorA: injA, Sink: sink}, mk())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestSinkEquivalenceRandomWorkloads is the sink-equivalence property
// test: over seeded random workloads and both schedulers, a run observed
// through the zero-allocation CountingSink must tally exactly the per-kind
// event counts a FullRecorder retains, and the sink choice (including
// NullSink) must not perturb the simulation's metrics at all.
func TestSinkEquivalenceRandomWorkloads(t *testing.T) {
	rng := fault.NewRNG(0x51D3C0DE)
	for trial := 0; trial < 8; trial++ {
		cfg, set := randomSinkWorkload(rng)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: config: %v", trial, err)
		}
		if err := set.Validate(); err != nil {
			t.Fatalf("trial %d: workload: %v", trial, err)
		}
		seed := uint64(trial + 1)
		for _, mk := range []func() sim.Scheduler{
			func() sim.Scheduler { return fspec.New(fspec.Options{}) },
			func() sim.Scheduler { return core.New(core.Options{BER: 1e-4, Goal: 0.999}) },
		} {
			full := trace.New()
			resFull := runWithSink(t, cfg, set, seed, mk, full)
			counting := &trace.CountingSink{}
			resCount := runWithSink(t, cfg, set, seed, mk, counting)
			resNull := runWithSink(t, cfg, set, seed, mk, trace.NullSink{})

			var total int64
			for _, k := range allKinds {
				total += full.Count(k)
				if got, want := counting.Count(k), full.Count(k); got != want {
					t.Errorf("trial %d: count[%v] = %d via CountingSink, %d via FullRecorder",
						trial, k, got, want)
				}
			}
			if counting.Total() != total || int64(full.Len()) != total {
				t.Errorf("trial %d: totals: counting=%d recorder=%d sum=%d",
					trial, counting.Total(), full.Len(), total)
			}
			if !reflect.DeepEqual(resFull.Report, resCount.Report) ||
				!reflect.DeepEqual(resFull.Report, resNull.Report) {
				t.Errorf("trial %d: sink choice changed the metrics report", trial)
			}
		}
	}
}

// TestSyncSinkSharedAcrossParallelRuns drives the parallel-runner path
// with one SyncSink shared by every cell — the only configuration in
// which a sink sees concurrent Record calls.  Under `make race` this is
// the lock's regression test; in any mode it checks that the shared
// tally equals the sum of isolated per-cell runs.
func TestSyncSinkSharedAcrossParallelRuns(t *testing.T) {
	const cells = 12
	cfg := testConfig()
	set := mixedWorkload()

	runCell := func(i int, sink trace.Sink) error {
		_, err := sim.Run(sim.Options{
			Config:   cfg,
			Workload: set,
			Mode:     sim.Streaming,
			Duration: 20 * time.Millisecond,
		}, sim.ReplicaOptions{Seed: uint64(i + 1), Sink: sink}, fspec.New(fspec.Options{}))
		return err
	}

	// Serial reference: each cell in isolation.
	want := make(map[trace.EventKind]int64)
	var wantTotal int64
	for i := 0; i < cells; i++ {
		rec := trace.New()
		if err := runCell(i, rec); err != nil {
			t.Fatalf("serial cell %d: %v", i, err)
		}
		for _, k := range allKinds {
			want[k] += rec.Count(k)
		}
		wantTotal += int64(rec.Len())
	}

	// Parallel runs sharing one synchronized counting sink.
	counting := &trace.CountingSink{}
	shared := trace.NewSync(counting)
	if _, err := runner.MapCtx(nil, 8, cells, func(i int) (struct{}, error) {
		return struct{}{}, runCell(i, shared)
	}); err != nil {
		t.Fatalf("parallel: %v", err)
	}

	for _, k := range allKinds {
		if counting.Count(k) != want[k] {
			t.Errorf("count[%v] = %d shared, %d summed serially",
				k, counting.Count(k), want[k])
		}
	}
	if counting.Total() != wantTotal {
		t.Errorf("total = %d shared, %d summed serially", counting.Total(), wantTotal)
	}
}

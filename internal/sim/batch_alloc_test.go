package sim

import (
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/trace"
)

// allocTestOptions is the small two-static, one-dynamic cluster the
// replica allocation gates run, in the given mode.
func allocTestOptions(mode Mode) Options {
	cfg := timebase.Config{
		MacrotickDuration:         time.Microsecond,
		MacroPerCycle:             1000,
		StaticSlots:               10,
		StaticSlotLen:             50,
		Minislots:                 40,
		MinislotLen:               5,
		DynamicSlotIdlePhase:      1,
		MinislotActionPointOffset: 1,
	}
	set := signal.Set{Name: "alloc", Messages: []signal.Message{
		{ID: 1, Name: "s1", Node: 0, Kind: signal.Periodic,
			Period: 2 * time.Millisecond, Deadline: 2 * time.Millisecond, Bits: 64},
		{ID: 2, Name: "s2", Node: 1, Kind: signal.Periodic,
			Period: 4 * time.Millisecond, Deadline: 4 * time.Millisecond, Bits: 128},
		{ID: 20, Name: "d20", Node: 2, Kind: signal.Aperiodic,
			Period: 5 * time.Millisecond, Deadline: 5 * time.Millisecond,
			Bits: 64, Priority: 1},
	}}
	return Options{
		Config:         cfg,
		Workload:       set,
		Mode:           mode,
		Duration:       100 * time.Millisecond,
		BatchInstances: 4,
		BitRate:        frame.DefaultBitRate,
	}
}

// replicaAllocs measures Reset → (batch release) → runCycle×cycles on
// one RunState of the spin scheduler and returns the average allocation
// count per replica.  A couple of warm-up replicas first grow the arenas
// and the lazily built metrics tables to steady state; the measured loop
// repeats one seed so arena demand is exactly the warmed size — a new
// seed could legitimately release more instances and grow the arena,
// which is growth, not leak.
func replicaAllocs(t *testing.T, opts Options, cycles int64, sink *trace.CountingSink) float64 {
	t.Helper()
	compiled, err := Compile(opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	st, err := compiled.NewState(&spinScheduler{})
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	replica := func(seed uint64) error {
		if err := st.Reset(ReplicaOptions{Seed: seed, Sink: sink}); err != nil {
			return err
		}
		if opts.Mode == Batch {
			st.eng.rel.enqueueBatch()
		}
		for c := int64(0); c < cycles; c++ {
			st.eng.runCycle(c)
		}
		return nil
	}
	for seed := uint64(7); seed < 9; seed++ {
		if err := replica(seed); err != nil {
			t.Fatalf("warm-up replica %d: %v", seed, err)
		}
	}
	var replicaErr error
	avg := testing.AllocsPerRun(50, func() {
		if err := replica(7); err != nil {
			replicaErr = err
		}
	})
	if replicaErr != nil {
		t.Fatalf("measured replica: %v", replicaErr)
	}
	return avg
}

// TestReplicaResetAllocFree extends the DESIGN.md §10 allocation gate to
// the batched replica loop: once a couple of warm-up replicas have grown
// the arenas and metrics tables to steady state, Reset plus the cycle
// loop must allocate nothing — that is the whole point of the
// compiled/replica-state split.  The measured op is Reset → release →
// runCycle×N; result assembly (Run's final Report) allocates by design
// and stays outside the replica hot path.
func TestReplicaResetAllocFree(t *testing.T) {
	sink := &trace.CountingSink{}
	if avg := replicaAllocs(t, allocTestOptions(Batch), 8, sink); avg != 0 {
		t.Errorf("steady-state Reset+run replica allocates %.2f times, want 0", avg)
	}
	if sink.Total() == 0 {
		t.Fatalf("counting sink saw no events — replica loop did not run")
	}
}

// TestStreamingOverloadReplicaAllocFree is the same gate for an
// overloaded streaming replica.  Batch instances never expire, so the
// batch gate cannot see the per-cycle expiry sweep; here the spin
// scheduler re-sends each slot's head forever, the rest of every buffer
// expires, and the engine drops instances on most cycles — that sweep
// must reuse its scratch slice instead of allocating one per dropping
// cycle.
func TestStreamingOverloadReplicaAllocFree(t *testing.T) {
	sink := &trace.CountingSink{}
	if avg := replicaAllocs(t, allocTestOptions(Streaming), 24, sink); avg != 0 {
		t.Errorf("steady-state Reset+run streaming replica allocates %.2f times, want 0", avg)
	}
	if sink.Count(trace.EventDrop) == 0 {
		t.Fatalf("counting sink saw no drops — the replica was not overloaded")
	}
}

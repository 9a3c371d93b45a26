package analysis

import (
	"errors"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/fspec"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/schedule"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/workload"
)

func testConfig() timebase.Config {
	return timebase.Config{
		MacrotickDuration:         time.Microsecond,
		MacroPerCycle:             1000,
		StaticSlots:               10,
		StaticSlotLen:             50,
		Minislots:                 40,
		MinislotLen:               5,
		DynamicSlotIdlePhase:      1,
		MinislotActionPointOffset: 1,
	}
}

func testSet() signal.Set {
	return signal.Set{Name: "w", Messages: []signal.Message{
		{ID: 1, Name: "s1", Node: 0, Kind: signal.Periodic,
			Period: 2 * time.Millisecond, Deadline: 2 * time.Millisecond, Bits: 64},
		{ID: 5, Name: "s5", Node: 1, Kind: signal.Periodic,
			Period: 8 * time.Millisecond, Deadline: 8 * time.Millisecond, Bits: 64},
		{ID: 12, Name: "d12", Node: 2, Kind: signal.Aperiodic,
			Period: 5 * time.Millisecond, Deadline: 5 * time.Millisecond,
			Bits: 64, Priority: 1},
		{ID: 15, Name: "d15", Node: 3, Kind: signal.Aperiodic,
			Period: 5 * time.Millisecond, Deadline: 5 * time.Millisecond,
			Bits: 96, Priority: 2},
	}}
}

func TestStaticWCRTHandComputed(t *testing.T) {
	cfg := testConfig()
	set := testSet()
	tbl, err := schedule.Build(set, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// s1: offset 0, period 2ms, repetition 2, base 0.  Every release
	// coincides with an owned cycle's start; the slot (ID 1) occupies
	// [0, 50) of that cycle → response 50µs.
	r, err := StaticWCRT(tbl, 1)
	if err != nil {
		t.Fatalf("StaticWCRT: %v", err)
	}
	if want := 50 * time.Microsecond; r.WCRT != want {
		t.Errorf("WCRT(s1) = %v, want %v", r.WCRT, want)
	}
	if !r.MeetsDeadline {
		t.Error("aligned s1 flagged as missing its deadline")
	}
	// s5: slot 5 ends at 250MT of its owned cycle → response 250µs.
	r, err = StaticWCRT(tbl, 5)
	if err != nil {
		t.Fatalf("StaticWCRT: %v", err)
	}
	if want := 250 * time.Microsecond; r.WCRT != want {
		t.Errorf("WCRT(s5) = %v, want %v", r.WCRT, want)
	}
	if _, err := StaticWCRT(tbl, 9); !errors.Is(err, ErrUnknownMessage) {
		t.Errorf("unknown slot: %v", err)
	}
	// The phase-oblivious bound is necessarily looser.
	any5, err := StaticWCRTAnyPhase(tbl, 5)
	if err != nil {
		t.Fatalf("StaticWCRTAnyPhase: %v", err)
	}
	if any5.WCRT <= r.WCRT {
		t.Errorf("any-phase bound %v not above exact %v", any5.WCRT, r.WCRT)
	}
	if want := 8250 * time.Microsecond; any5.WCRT != want {
		t.Errorf("any-phase WCRT(s5) = %v, want %v", any5.WCRT, want)
	}
}

func TestDynamicWCRTOrdering(t *testing.T) {
	cfg := testConfig()
	set := testSet()
	r12, err := DynamicWCRT(set, cfg, 10_000_000, 12)
	if err != nil {
		t.Fatalf("DynamicWCRT(12): %v", err)
	}
	r15, err := DynamicWCRT(set, cfg, 10_000_000, 15)
	if err != nil {
		t.Fatalf("DynamicWCRT(15): %v", err)
	}
	// The higher frame ID suffers interference from the lower one.
	if r15.WCRT <= r12.WCRT {
		t.Errorf("WCRT(15) = %v not above WCRT(12) = %v", r15.WCRT, r12.WCRT)
	}
	if !r12.MeetsDeadline || !r15.MeetsDeadline {
		t.Errorf("both dynamic frames should meet 5ms: %v, %v", r12.WCRT, r15.WCRT)
	}
	if _, err := DynamicWCRT(set, cfg, 10_000_000, 99); !errors.Is(err, ErrUnknownMessage) {
		t.Errorf("unknown dynamic: %v", err)
	}
}

func TestDynamicWCRTUnbounded(t *testing.T) {
	// A frame whose ID lies beyond the reachable slot counter range can
	// never transmit: 10 static slots + 40 minislots reach counter 50.
	set := testSet()
	set.Messages = append(set.Messages, signal.Message{
		ID: 60, Name: "starved", Node: 4, Kind: signal.Aperiodic,
		Period: 5 * time.Millisecond, Deadline: 5 * time.Millisecond,
		Bits: 64, Priority: 3,
	})
	_, err := DynamicWCRT(set, testConfig(), 10_000_000, 60)
	if !errors.Is(err, ErrUnbounded) {
		t.Fatalf("DynamicWCRT(60) = %v, want ErrUnbounded", err)
	}
}

// The analytical WCRT must upper-bound what the simulator measures — the
// cross-validation between the two halves of the library.
func TestWCRTBoundsSimulatedLatency(t *testing.T) {
	cfg := testConfig()
	set := testSet()
	results, err := All(set, cfg, 10_000_000)
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	bounds := make(map[int]time.Duration, len(results))
	for _, r := range results {
		if r.WCRT > 0 {
			bounds[r.FrameID] = r.WCRT
		}
	}

	res, err := sim.Run(sim.Options{
		Config:   cfg,
		Workload: set,
		Mode:     sim.Streaming,
		Duration: 500 * time.Millisecond,
	}, sim.ReplicaOptions{Seed: 3}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Report.Delivered[metrics.Static] == 0 || res.Report.Delivered[metrics.Dynamic] == 0 {
		t.Fatal("nothing delivered")
	}
	for id, mean := range res.Report.PerFrameMean {
		bound, ok := bounds[id]
		if !ok {
			continue
		}
		if mean > bound {
			t.Errorf("frame %d: simulated mean latency %v exceeds analytical WCRT %v",
				id, mean, bound)
		}
	}
	// The max observed latency per segment must also respect the loosest
	// per-segment bound.
	var maxStaticBound time.Duration
	for _, m := range set.Static() {
		if b := bounds[m.ID]; b > maxStaticBound {
			maxStaticBound = b
		}
	}
	if got := res.Report.MaxLatency[metrics.Static]; got > maxStaticBound {
		t.Errorf("max static latency %v exceeds loosest WCRT %v", got, maxStaticBound)
	}
}

func TestAllOnBBW(t *testing.T) {
	cfg := timebase.LatencyConfig(50)
	sae, err := workload.SAEAperiodic(workload.SAEAperiodicOptions{FirstID: 31, Seed: 1})
	if err != nil {
		t.Fatalf("SAEAperiodic: %v", err)
	}
	set, err := workload.Merge("bbw+sae", workload.BBW(), sae)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	results, err := All(set, cfg, 100_000_000)
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	if len(results) != 50 {
		t.Fatalf("results = %d, want 50", len(results))
	}
	// Every static BBW message must meet its deadline analytically in the
	// 1ms-cycle configuration.
	for _, r := range results[:20] {
		if !r.MeetsDeadline {
			t.Errorf("static frame %d misses analytically: WCRT %v", r.FrameID, r.WCRT)
		}
	}
}

// Property: the exact phase-aware static WCRT never exceeds the
// phase-oblivious bound.
func TestStaticWCRTWithinAnyPhaseBound(t *testing.T) {
	for _, set := range []signal.Set{workload.BBW(), workload.ACC()} {
		cfg := timebase.LatencyConfig(50)
		tbl, err := schedule.Build(set, cfg)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		for _, m := range set.Static() {
			exact, err := StaticWCRT(tbl, m.ID)
			if err != nil {
				t.Fatalf("StaticWCRT(%d): %v", m.ID, err)
			}
			loose, err := StaticWCRTAnyPhase(tbl, m.ID)
			if err != nil {
				t.Fatalf("StaticWCRTAnyPhase(%d): %v", m.ID, err)
			}
			if exact.WCRT > loose.WCRT {
				t.Errorf("%s frame %d: exact %v above any-phase %v",
					set.Name, m.ID, exact.WCRT, loose.WCRT)
			}
		}
	}
}

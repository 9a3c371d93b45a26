package sim_test

import (
	"sort"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/core"
	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/fspec"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/trace"
)

// txSpan is one wire occupation reconstructed from the trace.
type txSpan struct {
	start, end timebase.Macrotick
	ch         frame.Channel
	frameID    int
}

// collectSpans rebuilds per-channel wire occupations from TxStart events.
// The duration is recovered from the matching TxEnd/Fault event time when
// present; otherwise the frame is assumed to end by the next event.
func collectSpans(t *testing.T, rec *trace.Recorder, cfg timebase.Config, durOf func(frameID int) timebase.Macrotick) []txSpan {
	t.Helper()
	var spans []txSpan
	for _, ev := range rec.Filter(func(e trace.Event) bool { return e.Kind == trace.EventTxStart }) {
		spans = append(spans, txSpan{
			start:   ev.Time,
			end:     ev.Time + durOf(ev.FrameID),
			ch:      ev.Channel,
			frameID: ev.FrameID,
		})
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].ch != spans[j].ch {
			return spans[i].ch < spans[j].ch
		}
		return spans[i].start < spans[j].start
	})
	return spans
}

// TestWireInvariants drives both schedulers under faults and checks the
// physical-layer invariants of the FlexRay protocol on the recorded trace:
//
//  1. no two transmissions overlap on the same channel;
//  2. every static-frame transmission lies inside its own static slot;
//  3. every dynamic-frame transmission lies inside the dynamic segment;
//  4. transmissions never cross a cycle boundary.
func TestWireInvariants(t *testing.T) {
	cfg := testConfig()
	set := mixedWorkload()

	schedulers := []sim.Scheduler{
		fspec.New(fspec.Options{Copies: 2}),
		core.New(core.Options{BER: 2e-4, Goal: 0.999}),
	}
	for _, sched := range schedulers {
		rec := trace.New()
		injA, err := fault.NewBERInjector(2e-4, 5)
		if err != nil {
			t.Fatalf("NewBERInjector: %v", err)
		}
		res, err := sim.Run(sim.Options{
			Config:   cfg,
			Workload: set,
			Mode:     sim.Streaming,
			Duration: 100 * time.Millisecond,
		}, sim.ReplicaOptions{Seed: 5, InjectorA: injA, Sink: rec}, sched)
		if err != nil {
			t.Fatalf("Run(%s): %v", sched.Name(), err)
		}
		if res.Report.Delivered[1]+res.Report.Delivered[2] == 0 {
			t.Fatalf("%s delivered nothing", sched.Name())
		}

		// Frame durations per frame ID from the workload.
		durations := make(map[int]timebase.Macrotick)
		env := &sim.Env{Cfg: cfg, BitRate: frame.DefaultBitRate}
		for i := range set.Messages {
			m := &set.Messages[i]
			durations[m.ID] = env.FrameDuration(m)
		}
		spans := collectSpans(t, rec, cfg, func(id int) timebase.Macrotick {
			return durations[id]
		})
		if len(spans) == 0 {
			t.Fatalf("%s: no transmissions in trace", sched.Name())
		}

		for i, s := range spans {
			// (1) channel-exclusive medium.
			if i > 0 && spans[i-1].ch == s.ch && s.start < spans[i-1].end {
				t.Fatalf("%s: overlap on channel %v: [%d,%d) then [%d,%d)",
					sched.Name(), s.ch,
					spans[i-1].start, spans[i-1].end, s.start, s.end)
			}
			// (4) transmissions stay within one cycle.
			if cfg.CycleOf(s.start) != cfg.CycleOf(s.end-1) {
				t.Fatalf("%s: frame %d crosses cycle boundary at %d",
					sched.Name(), s.frameID, s.start)
			}
			startWin, startSlot := cfg.SlotAt(s.start)
			endWin, _ := cfg.SlotAt(s.end - 1)
			if s.frameID <= cfg.StaticSlots {
				// (2) static frames inside static slots (possibly a
				// stolen one — any static slot, but never outside the
				// static window).
				if startWin != timebase.WindowStatic || endWin != timebase.WindowStatic {
					t.Fatalf("%s: static frame %d transmitted in %v..%v window",
						sched.Name(), s.frameID, startWin, endWin)
				}
				// The transmission must fit the slot it started in.
				slotStart := cfg.StaticSlotStart(cfg.CycleOf(s.start), startSlot)
				if s.end > slotStart+cfg.StaticSlotLen {
					t.Fatalf("%s: frame %d spills out of slot %d",
						sched.Name(), s.frameID, startSlot)
				}
			} else {
				// (3) dynamic frames in the dynamic segment — or in a
				// stolen static slot under CoEfficient.
				if startWin == timebase.WindowIdle || startWin == timebase.WindowSymbol {
					t.Fatalf("%s: dynamic frame %d transmitted in %v window",
						sched.Name(), s.frameID, startWin)
				}
				if sched.Name() == "FSPEC" && startWin != timebase.WindowDynamic {
					t.Fatalf("FSPEC transmitted dynamic frame %d outside the dynamic segment (%v)",
						s.frameID, startWin)
				}
			}
		}
	}
}

// TestWireInvariantsRandomWorkloads repeats the physical-layer checks over
// randomized workloads, configurations and seeds.
func TestWireInvariantsRandomWorkloads(t *testing.T) {
	rng := fault.NewRNG(20140622)
	for trial := 0; trial < 12; trial++ {
		cfg := timebase.Config{
			MacrotickDuration:         time.Microsecond,
			MacroPerCycle:             1000,
			StaticSlots:               6 + rng.Intn(10),
			StaticSlotLen:             timebase.Macrotick(30 + rng.Intn(40)),
			Minislots:                 20 + rng.Intn(40),
			MinislotLen:               timebase.Macrotick(2 + rng.Intn(4)),
			DynamicSlotIdlePhase:      1,
			MinislotActionPointOffset: 1,
		}
		for cfg.StaticSegmentLen()+cfg.DynamicSegmentLen() > cfg.MacroPerCycle {
			cfg.Minislots /= 2
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: config: %v", trial, err)
		}

		var msgs []signal.Message
		nStatic := 2 + rng.Intn(cfg.StaticSlots-1)
		for i := 0; i < nStatic; i++ {
			periodMs := 1 << rng.Intn(3) // 1, 2, 4 ms
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
		set := signal.Set{Name: "rand", Messages: msgs}
		if err := set.Validate(); err != nil {
			t.Fatalf("trial %d: workload: %v", trial, err)
		}

		for _, mk := range []func() sim.Scheduler{
			func() sim.Scheduler { return fspec.New(fspec.Options{Copies: 1 + rng.Intn(2)}) },
			func() sim.Scheduler { return core.New(core.Options{BER: 1e-4, Goal: 0.999}) },
		} {
			sched := mk()
			rec := trace.New()
			injA, err := fault.NewBERInjector(1e-4, uint64(trial))
			if err != nil {
				t.Fatal(err)
			}
			_, err = sim.Run(sim.Options{
				Config:   cfg,
				Workload: set,
				Mode:     sim.Streaming,
				Duration: 30 * time.Millisecond,
			}, sim.ReplicaOptions{Seed: uint64(trial), InjectorA: injA, Sink: rec}, sched)
			if err != nil {
				t.Fatalf("trial %d (%s): %v", trial, sched.Name(), err)
			}
			durations := make(map[int]timebase.Macrotick)
			env := &sim.Env{Cfg: cfg, BitRate: frame.DefaultBitRate}
			for i := range set.Messages {
				m := &set.Messages[i]
				durations[m.ID] = env.FrameDuration(m)
			}
			spans := collectSpans(t, rec, cfg, func(id int) timebase.Macrotick {
				return durations[id]
			})
			for i, s := range spans {
				if i > 0 && spans[i-1].ch == s.ch && s.start < spans[i-1].end {
					t.Fatalf("trial %d (%s): overlap on %v at %d",
						trial, sched.Name(), s.ch, s.start)
				}
				if cfg.CycleOf(s.start) != cfg.CycleOf(s.end-1) {
					t.Fatalf("trial %d (%s): frame %d crosses cycle at %d",
						trial, sched.Name(), s.frameID, s.start)
				}
				win, _ := cfg.SlotAt(s.start)
				if win == timebase.WindowIdle || win == timebase.WindowSymbol {
					t.Fatalf("trial %d (%s): tx in %v window", trial, sched.Name(), win)
				}
			}
		}
	}
}

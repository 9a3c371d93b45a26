package sim

import (
	"testing"

	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/node"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/trace"
)

// spinScheduler keeps every slot busy forever: it re-transmits the head
// instance of each slot's buffer whether or not it was delivered, so
// runCycle exercises the full transmit/record/injector path on every
// cycle without ever draining the workload — the steady state the
// allocation gate measures.
type spinScheduler struct {
	env *Env
	tx  Transmission
}

func (s *spinScheduler) Name() string                         { return "spin" }
func (s *spinScheduler) Init(env *Env) error                  { s.env = env; return nil }
func (s *spinScheduler) ResetReplica() error                  { return nil }
func (s *spinScheduler) CycleStart(int64, timebase.Macrotick) {}

func (s *spinScheduler) StaticSlot(ch frame.Channel, _ int64, slot int, now timebase.Macrotick) *Transmission {
	m := s.env.StaticMsg(slot)
	if m == nil || !s.env.Attached(m.Node, ch) {
		return nil
	}
	in := s.env.ECU(m.Node).PeekStaticBlind(slot, now, 1<<30)
	if in == nil {
		return nil
	}
	s.tx = Transmission{Instance: in, Channel: ch, Duration: s.env.FrameDuration(m)}
	return &s.tx
}

func (s *spinScheduler) DynamicSlot(ch frame.Channel, _ int64, slotCounter, _, remaining int, now timebase.Macrotick) *Transmission {
	m := s.env.DynamicMsg(slotCounter)
	if m == nil || !s.env.Attached(m.Node, ch) {
		return nil
	}
	if s.env.MinislotsFor(m) > remaining {
		return nil
	}
	in := s.env.ECU(m.Node).PeekDynamicForBlind(slotCounter, now, 1<<30)
	if in == nil {
		return nil
	}
	s.tx = Transmission{Instance: in, Channel: ch, Duration: s.env.FrameDuration(m)}
	return &s.tx
}

func (s *spinScheduler) Result(*Transmission, bool, timebase.Macrotick)     {}
func (s *spinScheduler) InstanceDropped(*node.Instance, timebase.Macrotick) {}

// TestHotPathAllocFree is the allocation regression gate of DESIGN.md
// §10: once the workload is released and the first deliveries have
// warmed the metrics tables, the batch-mode cycle loop must run with
// zero heap allocations under a CountingSink.  Any new make/append/
// boxing on the runCycle path fails this test (and the hotpath lint
// that guards the same functions statically).
func TestHotPathAllocFree(t *testing.T) {
	compiled, err := Compile(allocTestOptions(Batch))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	state, err := compiled.NewState(&spinScheduler{})
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	if err := state.Reset(ReplicaOptions{Seed: 7, Sink: &trace.CountingSink{}}); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	eng := state.eng
	eng.rel.enqueueBatch()

	// Warm-up: first deliveries populate the lazily grown metrics tables
	// (per-frame series, latency chunks); the steady state reuses them.
	cycle := int64(0)
	for ; cycle < 4; cycle++ {
		eng.runCycle(cycle)
	}

	avg := testing.AllocsPerRun(100, func() {
		eng.runCycle(cycle)
		cycle++
	})
	if avg != 0 {
		t.Errorf("steady-state runCycle allocates %.2f times per cycle, want 0", avg)
	}
}

package sim_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/node"
	"github.com/flexray-go/coefficient/internal/scenario"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/topology"
	"github.com/flexray-go/coefficient/internal/trace"

	"github.com/flexray-go/coefficient/internal/fspec"
)

// testConfig: 1ms cycle, 10 static slots of 50 macroticks, 40 minislots of
// 5 macroticks, 300 macroticks of idle tail.
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

func staticOnlyWorkload() signal.Set {
	msgs := []signal.Message{
		{ID: 1, Name: "s1", Node: 0, Kind: signal.Periodic,
			Period: 2 * time.Millisecond, Deadline: 2 * time.Millisecond, Bits: 64},
		{ID: 2, Name: "s2", Node: 1, Kind: signal.Periodic,
			Period: 4 * time.Millisecond, Deadline: 4 * time.Millisecond, Bits: 128},
		{ID: 5, Name: "s5", Node: 2, Kind: signal.Periodic,
			Period: 1 * time.Millisecond, Deadline: 1 * time.Millisecond, Bits: 64},
	}
	return signal.Set{Name: "static-only", Messages: msgs}
}

func mixedWorkload() signal.Set {
	set := staticOnlyWorkload()
	set.Messages = append(set.Messages,
		signal.Message{ID: 20, Name: "d20", Node: 3, Kind: signal.Aperiodic,
			Period: 5 * time.Millisecond, Deadline: 5 * time.Millisecond,
			Bits: 64, Priority: 1},
		signal.Message{ID: 25, Name: "d25", Node: 4, Kind: signal.Aperiodic,
			Period: 10 * time.Millisecond, Deadline: 10 * time.Millisecond,
			Bits: 96, Priority: 2},
	)
	set.Name = "mixed"
	return set
}

func TestStreamingFaultFreeDeliversEverything(t *testing.T) {
	rec := trace.New()
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: 100 * time.Millisecond,
	}, sim.ReplicaOptions{Seed: 1, Sink: rec}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	if r.Delivered[metrics.Static] == 0 || r.Delivered[metrics.Dynamic] == 0 {
		t.Fatalf("deliveries static/dynamic = %d/%d, want both > 0",
			r.Delivered[metrics.Static], r.Delivered[metrics.Dynamic])
	}
	// s5 has a 1ms period over 100ms: roughly 100 instances; s1 ~50; s2 ~25.
	if got := r.Delivered[metrics.Static]; got < 160 || got > 180 {
		t.Errorf("static deliveries = %d, want ≈175", got)
	}
	if r.DeadlineMissRatio[metrics.Static] != 0 {
		t.Errorf("fault-free static miss ratio = %g, want 0", r.DeadlineMissRatio[metrics.Static])
	}
	if r.DeadlineMissRatio[metrics.Dynamic] != 0 {
		t.Errorf("fault-free dynamic miss ratio = %g, want 0", r.DeadlineMissRatio[metrics.Dynamic])
	}
	if r.Dropped[metrics.Static] != 0 || r.Dropped[metrics.Dynamic] != 0 {
		t.Errorf("fault-free drops = %v, want none", r.Dropped)
	}
	if r.Faults != 0 || r.Retransmissions != 0 {
		t.Errorf("fault-free run recorded %d faults, %d retx", r.Faults, r.Retransmissions)
	}
	if rec.Count(trace.EventTxEnd) == 0 {
		t.Error("no tx-end events recorded")
	}
}

func TestFSPECDuplicatesOnChannelB(t *testing.T) {
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: staticOnlyWorkload(),
		Mode:     sim.Streaming,
		Duration: 50 * time.Millisecond,
	}, sim.ReplicaOptions{Seed: 1}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	// Raw wire time counts both copies; useful time only the delivering
	// copy: the ratio must be essentially 2.
	if r.RawUtilization < 1.9*r.BandwidthUtilization {
		t.Errorf("RawUtilization %g not ≈2× useful %g: channel-B duplication missing?",
			r.RawUtilization, r.BandwidthUtilization)
	}
}

func TestFaultInjectionCausesRetransmissions(t *testing.T) {
	injA, err := fault.NewBERInjector(2e-3, 7) // ~25% frame loss at ~170 wire bits
	if err != nil {
		t.Fatalf("NewBERInjector: %v", err)
	}
	injB, err := fault.NewBERInjector(2e-3, 8)
	if err != nil {
		t.Fatalf("NewBERInjector: %v", err)
	}
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: staticOnlyWorkload(),
		Mode:     sim.Streaming,
		Duration: 200 * time.Millisecond,
	}, sim.ReplicaOptions{Seed: 1, InjectorA: injA, InjectorB: injB}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	if r.Faults == 0 {
		t.Fatal("no faults injected at BER 2e-3")
	}
	if r.Retransmissions == 0 {
		t.Fatal("faults occurred but no retransmissions happened")
	}
	if r.Delivered[metrics.Static] == 0 {
		t.Fatal("nothing delivered under faults")
	}
	if res.FaultsA.Faults == 0 {
		t.Error("injector A reports no faults")
	}
}

func TestBatchModeMakespan(t *testing.T) {
	res, err := sim.Run(sim.Options{
		Config:         testConfig(),
		Workload:       staticOnlyWorkload(),
		Mode:           sim.Batch,
		BatchInstances: 20,
	}, sim.ReplicaOptions{Seed: 1}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	want := int64(3 * 20)
	if got := r.Delivered[metrics.Static]; got != want {
		t.Fatalf("batch delivered %d, want %d", got, want)
	}
	if r.Makespan <= 0 {
		t.Error("zero makespan")
	}
	// s1 (2ms period, 20 instances) finishes around 38-40ms; the run must
	// not be radically longer.
	if r.Makespan > 100*time.Millisecond {
		t.Errorf("makespan %v unexpectedly long", r.Makespan)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Result {
		injA, err := fault.NewBERInjector(1e-3, 42)
		if err != nil {
			t.Fatalf("NewBERInjector: %v", err)
		}
		res, err := sim.Run(sim.Options{
			Config:   testConfig(),
			Workload: mixedWorkload(),
			Mode:     sim.Streaming,
			Duration: 100 * time.Millisecond,
		}, sim.ReplicaOptions{Seed: 5, InjectorA: injA}, fspec.New(fspec.Options{}))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Report.Delivered[metrics.Static] != b.Report.Delivered[metrics.Static] ||
		a.Report.Faults != b.Report.Faults ||
		a.Report.MeanLatency[metrics.Dynamic] != b.Report.MeanLatency[metrics.Dynamic] {
		t.Error("same-seed runs differ")
	}
}

func TestOptionValidation(t *testing.T) {
	base := sim.Options{
		Config:   testConfig(),
		Workload: staticOnlyWorkload(),
		Mode:     sim.Streaming,
		Duration: time.Millisecond,
	}
	tests := []struct {
		name   string
		mutate func(*sim.Options)
	}{
		{"zero duration", func(o *sim.Options) { o.Duration = 0 }},
		{"bad mode", func(o *sim.Options) { o.Mode = 0 }},
		{"batch without instances", func(o *sim.Options) { o.Mode = sim.Batch; o.BatchInstances = 0 }},
		{"static id too big", func(o *sim.Options) { o.Workload.Messages[0].ID = 11 }},
		{"bad config", func(o *sim.Options) { o.Config.StaticSlots = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o := base
			o.Workload.Messages = append([]signal.Message(nil), base.Workload.Messages...)
			tt.mutate(&o)
			if _, err := sim.Run(o, sim.ReplicaOptions{}, fspec.New(fspec.Options{})); !errors.Is(err, sim.ErrBadOptions) {
				t.Fatalf("Run = %v, want ErrBadOptions", err)
			}
		})
	}
}

// TestValidationErrorDeterministic pins the order in which the
// scenario's node validation walks its per-node outage map: with several
// invalid nodes, the reported error must be the lowest node ID's every
// time, not whichever entry Go's randomized map iteration visits first.
func TestValidationErrorDeterministic(t *testing.T) {
	// Overlapping outages on nodes 9, 2 and 5: the error must name
	// node 2, the smallest offender.
	var events []scenario.NodeEvent
	for _, id := range []int{9, 2, 5} {
		events = append(events,
			scenario.NodeEvent{Node: id, FailAt: scenario.Duration(time.Millisecond), RecoverAt: scenario.Duration(3 * time.Millisecond)},
			scenario.NodeEvent{Node: id, FailAt: scenario.Duration(2 * time.Millisecond), RecoverAt: scenario.Duration(4 * time.Millisecond)})
	}
	want := ""
	for i := 0; i < 50; i++ {
		o := sim.Options{
			Config:   testConfig(),
			Workload: staticOnlyWorkload(),
			Mode:     sim.Streaming,
			Duration: time.Millisecond,
			Scenario: &scenario.Scenario{Nodes: events},
		}
		_, err := sim.Run(o, sim.ReplicaOptions{}, fspec.New(fspec.Options{}))
		if !errors.Is(err, sim.ErrBadOptions) {
			t.Fatalf("Run = %v, want ErrBadOptions", err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("validation error changed between runs:\n%q\n%q", want, err.Error())
		}
	}
	if !strings.Contains(want, "node 2") {
		t.Fatalf("error %q does not name the lowest node ID", want)
	}
}

func TestDynamicFrameIDInsideStaticRangeRejected(t *testing.T) {
	set := staticOnlyWorkload()
	set.Messages = append(set.Messages, signal.Message{
		ID: 7, Name: "bad-dyn", Node: 0, Kind: signal.Aperiodic,
		Deadline: time.Millisecond, Bits: 64,
	})
	_, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: set,
		Mode:     sim.Streaming,
		Duration: time.Millisecond,
	}, sim.ReplicaOptions{}, fspec.New(fspec.Options{}))
	if !errors.Is(err, sim.ErrBadOptions) {
		t.Fatalf("Run = %v, want ErrBadOptions", err)
	}
}

func TestOversizedStaticMessageRejected(t *testing.T) {
	set := staticOnlyWorkload()
	set.Messages[0].Bits = 4000 // needs far more than a 50-macrotick slot
	_, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: set,
		Mode:     sim.Streaming,
		Duration: time.Millisecond,
	}, sim.ReplicaOptions{}, fspec.New(fspec.Options{}))
	if !errors.Is(err, sim.ErrBadOptions) {
		t.Fatalf("Run = %v, want ErrBadOptions", err)
	}
}

func TestDynamicLatencyBoundedFaultFree(t *testing.T) {
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: 100 * time.Millisecond,
	}, sim.ReplicaOptions{Seed: 9}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// A dynamic instance waits at most ~1 cycle for its slot counter.
	if got := res.Report.MaxLatency[metrics.Dynamic]; got > 3*time.Millisecond {
		t.Errorf("max dynamic latency = %v, want ≤ 3ms", got)
	}
}

func TestPartialTopologyNoInvalidTransmissions(t *testing.T) {
	cluster := topology.Cluster{
		Name: "partial",
		Nodes: []topology.Node{
			{ID: 0, Name: "a-only", ChannelA: true},
			{ID: 1, Name: "dual-1", ChannelA: true, ChannelB: true},
			{ID: 2, Name: "dual-2", ChannelA: true, ChannelB: true},
			{ID: 3, Name: "dual-3", ChannelA: true, ChannelB: true},
			{ID: 4, Name: "dual-4", ChannelA: true, ChannelB: true},
		},
		ChannelA: topology.ChannelConfig{Kind: topology.KindBus},
		ChannelB: topology.ChannelConfig{Kind: topology.KindBus},
	}
	rec := trace.New()
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Cluster:  cluster,
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: 50 * time.Millisecond,
	}, sim.ReplicaOptions{Seed: 1, Sink: rec}, fspec.New(fspec.Options{Copies: 2}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Report.Delivered[metrics.Static] == 0 {
		t.Fatal("nothing delivered on partial topology")
	}
	invalid := rec.Filter(func(e trace.Event) bool {
		return e.Kind == trace.EventDrop && strings.HasPrefix(e.Detail, "invalid")
	})
	if len(invalid) != 0 {
		t.Errorf("%d invalid transmissions recorded, first: %+v", len(invalid), invalid[0])
	}
	// Node 0 owns frame 1 and is not attached to channel B: every frame-1
	// transmission must be on channel A.
	for _, ev := range rec.Filter(func(e trace.Event) bool {
		return e.Kind == trace.EventTxStart && e.FrameID == 1
	}) {
		if ev.Channel != frame.ChannelA {
			t.Fatalf("frame 1 transmitted on channel %v by B-unattached node", ev.Channel)
		}
	}
}

func TestArrivalJitter(t *testing.T) {
	run := func(jitter float64) int64 {
		rec := trace.New()
		_, err := sim.Run(sim.Options{
			Config:        testConfig(),
			Workload:      mixedWorkload(),
			Mode:          sim.Streaming,
			Duration:      200 * time.Millisecond,
			ArrivalJitter: jitter,
		}, sim.ReplicaOptions{Seed: 4, Sink: rec}, fspec.New(fspec.Options{}))
		if err != nil {
			t.Fatalf("Run(jitter=%g): %v", jitter, err)
		}
		var firstDyn timebase.Macrotick = -1
		var count int64
		for _, ev := range rec.Filter(func(e trace.Event) bool {
			return e.Kind == trace.EventRelease && e.FrameID >= 20
		}) {
			if firstDyn == -1 {
				firstDyn = ev.Time
			}
			count++
		}
		return count
	}
	strict := run(0)
	jittered := run(0.5)
	// Arrival counts stay in the same ballpark (same mean rate).
	if jittered < strict/2 || jittered > strict*2 {
		t.Errorf("jittered arrivals %d vs strict %d: rate drifted", jittered, strict)
	}
}

func TestArrivalJitterValidation(t *testing.T) {
	_, err := sim.Run(sim.Options{
		Config:        testConfig(),
		Workload:      mixedWorkload(),
		Mode:          sim.Streaming,
		Duration:      time.Millisecond,
		ArrivalJitter: 1.5,
	}, sim.ReplicaOptions{}, fspec.New(fspec.Options{}))
	if !errors.Is(err, sim.ErrBadOptions) {
		t.Fatalf("Run(jitter=1.5) = %v, want ErrBadOptions", err)
	}
}

func TestPermanentNodeFailure(t *testing.T) {
	// Node 2 (owner of s5, the 1ms-period message) dies at 20ms.
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: 100 * time.Millisecond,
		Scenario: nodeOutage(2, 20*time.Millisecond, 0),
	}, sim.ReplicaOptions{Seed: 1}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	// s5 delivers ~20 instances before the failure; the remaining ~80
	// expire as drops.  The other messages are unaffected (fault
	// containment).
	if r.Dropped[metrics.Static] < 70 {
		t.Errorf("static drops = %d, want ≈80 from the failed node", r.Dropped[metrics.Static])
	}
	if r.Delivered[metrics.Static] < 60 { // s1 ~50 + s2 ~25 + s5's first 20
		t.Errorf("static deliveries = %d: failure not contained", r.Delivered[metrics.Static])
	}
	if r.DeadlineMissRatio[metrics.Dynamic] != 0 {
		t.Errorf("dynamic traffic affected by an unrelated node failure: %g",
			r.DeadlineMissRatio[metrics.Dynamic])
	}
}

func TestSymbolWindowStaysSilent(t *testing.T) {
	cfg := testConfig()
	cfg.SymbolWindowLen = 100
	rec := trace.New()
	_, err := sim.Run(sim.Options{
		Config:   cfg,
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: 50 * time.Millisecond,
	}, sim.ReplicaOptions{Seed: 1, Sink: rec}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, ev := range rec.Filter(func(e trace.Event) bool { return e.Kind == trace.EventTxStart }) {
		if win, _ := cfg.SlotAt(ev.Time); win == timebase.WindowSymbol {
			t.Fatalf("transmission started inside the symbol window at %d", ev.Time)
		}
	}
}

func TestGoodputReported(t *testing.T) {
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: staticOnlyWorkload(),
		Mode:     sim.Streaming,
		Duration: 100 * time.Millisecond,
	}, sim.ReplicaOptions{Seed: 1}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// s5 alone delivers 64 bits/ms = 64 kbit/s; with s1 and s2 the
	// goodput is ≈ 112 kbit/s.
	got := res.Report.GoodputBps
	if got < 90_000 || got > 130_000 {
		t.Errorf("GoodputBps = %g, want ≈112k", got)
	}
}

func TestWarmupExcludesEarlyMetrics(t *testing.T) {
	run := func(warmup time.Duration) sim.Result {
		res, err := sim.Run(sim.Options{
			Config:   testConfig(),
			Workload: staticOnlyWorkload(),
			Mode:     sim.Streaming,
			Duration: 100 * time.Millisecond,
			Warmup:   warmup,
		}, sim.ReplicaOptions{Seed: 1}, fspec.New(fspec.Options{}))
		if err != nil {
			t.Fatalf("Run(warmup=%v): %v", warmup, err)
		}
		return res
	}
	full := run(0)
	warm := run(50 * time.Millisecond)
	// Roughly half the deliveries fall inside the warmup window.
	f := full.Report.Delivered[metrics.Static]
	w := warm.Report.Delivered[metrics.Static]
	if w >= f || w < f/3 {
		t.Errorf("warm deliveries = %d vs full %d: warmup not excluding ≈half", w, f)
	}
	// Utilization is computed over the measured window only, so it stays
	// comparable.
	if warm.Report.BandwidthUtilization < 0.5*full.Report.BandwidthUtilization {
		t.Errorf("warm utilization %g collapsed vs full %g",
			warm.Report.BandwidthUtilization, full.Report.BandwidthUtilization)
	}
}

func TestWarmupValidation(t *testing.T) {
	_, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: staticOnlyWorkload(),
		Mode:     sim.Streaming,
		Duration: time.Millisecond,
		Warmup:   time.Millisecond,
	}, sim.ReplicaOptions{}, fspec.New(fspec.Options{}))
	if !errors.Is(err, sim.ErrBadOptions) {
		t.Fatalf("warmup == duration accepted: %v", err)
	}
}

func TestCHICapacityOverflow(t *testing.T) {
	// A 1-deep dynamic queue under 5ms arrivals with a scheduler that
	// never serves dynamics (static-only FTDMA IDs absent) would pile up;
	// use a tiny dynamic segment so service is slow.
	cfg := testConfig()
	cfg.Minislots = 2 // barely any dynamic capacity
	set := mixedWorkload()
	res, err := sim.Run(sim.Options{
		Config:             cfg,
		Workload:           set,
		Mode:               sim.Streaming,
		Duration:           100 * time.Millisecond,
		CHIDynamicCapacity: 1,
	}, sim.ReplicaOptions{Seed: 1}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Report.Dropped[metrics.Dynamic] == 0 {
		t.Error("no dynamic overflow drops with a 1-deep CHI queue and a starved dynamic segment")
	}
	// Unlimited buffers on the same setup lose fewer or equal instances
	// to overflow (they may still expire).
	res2, err := sim.Run(sim.Options{
		Config:   cfg,
		Workload: set,
		Mode:     sim.Streaming,
		Duration: 100 * time.Millisecond,
	}, sim.ReplicaOptions{Seed: 1}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res2.Report.Delivered[metrics.Dynamic] < res.Report.Delivered[metrics.Dynamic] {
		t.Errorf("unlimited buffers delivered less (%d) than capped (%d)",
			res2.Report.Delivered[metrics.Dynamic], res.Report.Delivered[metrics.Dynamic])
	}
}

func TestCHICapacityValidation(t *testing.T) {
	_, err := sim.Run(sim.Options{
		Config:            testConfig(),
		Workload:          mixedWorkload(),
		Mode:              sim.Streaming,
		Duration:          time.Millisecond,
		CHIStaticCapacity: -1,
	}, sim.ReplicaOptions{}, fspec.New(fspec.Options{}))
	if !errors.Is(err, sim.ErrBadOptions) {
		t.Fatalf("negative capacity accepted: %v", err)
	}
}

// brokenScheduler violates every protocol constraint the engine checks.
type brokenScheduler struct {
	env  *sim.Env
	mode int
}

func (b *brokenScheduler) Name() string                         { return "broken" }
func (b *brokenScheduler) Init(env *sim.Env) error              { b.env = env; return nil }
func (b *brokenScheduler) ResetReplica() error                  { return nil }
func (b *brokenScheduler) CycleStart(int64, timebase.Macrotick) {}

func (b *brokenScheduler) StaticSlot(ch frame.Channel, _ int64, slot int, now timebase.Macrotick) *sim.Transmission {
	m := b.env.StaticMsg(slot)
	if m == nil {
		return nil
	}
	in := b.env.ECU(m.Node).PeekStatic(slot, now)
	if in == nil {
		return nil
	}
	switch b.mode {
	case 0: // frame longer than the slot
		return &sim.Transmission{Instance: in, Channel: ch,
			Duration: b.env.Cfg.StaticSlotLen + 10}
	case 1: // nil instance
		return &sim.Transmission{Channel: ch, Duration: 10}
	case 2: // non-positive duration
		return &sim.Transmission{Instance: in, Channel: ch, Duration: 0}
	default: // mode 3 breaks only the dynamic segment
		return nil
	}
}

func (b *brokenScheduler) DynamicSlot(ch frame.Channel, _ int64, slotCounter, _, remaining int, now timebase.Macrotick) *sim.Transmission {
	if b.mode == 3 {
		return b.wrongDynamicSlot(ch, slotCounter, remaining, now)
	}
	m := b.env.DynamicMsg(slotCounter)
	if m == nil {
		return nil
	}
	in := b.env.ECU(m.Node).PeekDynamicFor(slotCounter, now)
	if in == nil {
		return nil
	}
	// Claim far more minislots than remain.
	return &sim.Transmission{Instance: in, Channel: ch,
		Duration: b.env.Cfg.MinislotLen * timebase.Macrotick(remaining+10)}
}

// wrongDynamicSlot sends a frame that is valid in every other respect —
// pending, attached, fitting the minislots left — in a dynamic slot whose
// counter is not its frame ID.
func (b *brokenScheduler) wrongDynamicSlot(ch frame.Channel, slotCounter, remaining int, now timebase.Macrotick) *sim.Transmission {
	for _, d := range b.env.Set.Dynamic() {
		m := b.env.DynamicMsg(d.ID)
		if m.ID == slotCounter || b.env.MinislotsFor(m) > remaining {
			continue
		}
		if in := b.env.ECU(m.Node).PeekDynamicFor(m.ID, now); in != nil {
			return &sim.Transmission{Instance: in, Channel: ch, Duration: b.env.FrameDuration(m)}
		}
	}
	return nil
}

func (b *brokenScheduler) Result(*sim.Transmission, bool, timebase.Macrotick) {}
func (b *brokenScheduler) InstanceDropped(*node.Instance, timebase.Macrotick) {}

// The engine must reject protocol-violating transmissions without
// panicking, recording them as invalid drops in the trace.
func TestEngineRejectsProtocolViolations(t *testing.T) {
	for mode := 0; mode < 4; mode++ {
		rec := trace.New()
		res, err := sim.Run(sim.Options{
			Config:   testConfig(),
			Workload: mixedWorkload(),
			Mode:     sim.Streaming,
			Duration: 10 * time.Millisecond,
		}, sim.ReplicaOptions{Seed: 1, Sink: rec}, &brokenScheduler{mode: mode})
		if err != nil {
			t.Fatalf("mode %d: Run: %v", mode, err)
		}
		invalid := rec.Filter(func(e trace.Event) bool {
			return e.Kind == trace.EventDrop && strings.HasPrefix(e.Detail, "invalid")
		})
		if len(invalid) == 0 {
			t.Errorf("mode %d: no invalid transmissions recorded", mode)
		}
		// Nothing was actually delivered by a broken static policy.
		if mode != 1 && res.Report.Delivered[metrics.Static] != 0 {
			t.Errorf("mode %d: %d deliveries from invalid transmissions",
				mode, res.Report.Delivered[metrics.Static])
		}
		// A dynamic frame goes out only in the slot whose counter equals
		// its frame ID.
		if mode == 3 {
			if got := res.Report.Delivered[metrics.Dynamic]; got != 0 {
				t.Errorf("mode 3: %d dynamic deliveries in the wrong slot", got)
			}
			if len(invalid) > 0 && !strings.Contains(invalid[0].Detail, "dynamic slot") {
				t.Errorf("mode 3: invalid drop %q does not name the slot rule", invalid[0].Detail)
			}
		}
	}
}

func TestOwnerOfStaticSlot(t *testing.T) {
	var captured *sim.Env
	sched := fspec.New(fspec.Options{})
	_, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: time.Millisecond,
	}, sim.ReplicaOptions{Seed: 1}, &envCapture{inner: sched, out: &captured})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if owner := captured.OwnerOfStaticSlot(1); owner == nil || owner.ID != 0 {
		t.Errorf("OwnerOfStaticSlot(1) = %+v, want node 0", owner)
	}
	if owner := captured.OwnerOfStaticSlot(9); owner != nil {
		t.Errorf("OwnerOfStaticSlot(unassigned) = %+v", owner)
	}
}

// envCapture wraps a scheduler to expose the Env the engine built.
type envCapture struct {
	inner sim.Scheduler
	out   **sim.Env
}

func (e *envCapture) Name() string { return e.inner.Name() }
func (e *envCapture) Init(env *sim.Env) error {
	*e.out = env
	return e.inner.Init(env)
}
func (e *envCapture) ResetReplica() error                        { return e.inner.ResetReplica() }
func (e *envCapture) CycleStart(c int64, now timebase.Macrotick) { e.inner.CycleStart(c, now) }
func (e *envCapture) StaticSlot(ch frame.Channel, c int64, slot int, now timebase.Macrotick) *sim.Transmission {
	return e.inner.StaticSlot(ch, c, slot, now)
}
func (e *envCapture) DynamicSlot(ch frame.Channel, c int64, sc, ms, rem int, now timebase.Macrotick) *sim.Transmission {
	return e.inner.DynamicSlot(ch, c, sc, ms, rem, now)
}
func (e *envCapture) Result(tx *sim.Transmission, ok bool, now timebase.Macrotick) {
	e.inner.Result(tx, ok, now)
}
func (e *envCapture) InstanceDropped(in *node.Instance, now timebase.Macrotick) {
	e.inner.InstanceDropped(in, now)
}

func TestExplicitLatestTxHonored(t *testing.T) {
	// pLatestTx = 1: dynamic transmissions may only start in the first
	// minislot, so at most one dynamic frame per channel per cycle, and
	// only the lowest reachable frame ID (20, at slot counter 11 — which
	// needs the counter to pass 10 empty slots first, so nothing can
	// start by minislot 1 and the dynamic segment stays silent).
	cfg := testConfig()
	cfg.LatestTx = 1
	rec := trace.New()
	res, err := sim.Run(sim.Options{
		Config:   cfg,
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: 50 * time.Millisecond,
	}, sim.ReplicaOptions{Seed: 1, Sink: rec}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := res.Report.Delivered[metrics.Dynamic]; got != 0 {
		t.Errorf("pLatestTx=1 delivered %d dynamic frames; FTDMA gate broken", got)
	}
	// Static traffic is unaffected.
	if res.Report.Delivered[metrics.Static] == 0 {
		t.Error("static traffic vanished under a dynamic-segment gate")
	}
}

func TestJitteredRunsAreDeterministic(t *testing.T) {
	run := func() sim.Result {
		res, err := sim.Run(sim.Options{
			Config:        testConfig(),
			Workload:      mixedWorkload(),
			Mode:          sim.Streaming,
			Duration:      100 * time.Millisecond,
			ArrivalJitter: 0.4,
		}, sim.ReplicaOptions{Seed: 8}, fspec.New(fspec.Options{}))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Report.Delivered[metrics.Dynamic] != b.Report.Delivered[metrics.Dynamic] ||
		a.Report.MeanLatency[metrics.Dynamic] != b.Report.MeanLatency[metrics.Dynamic] {
		t.Error("same-seed jittered runs differ")
	}
}

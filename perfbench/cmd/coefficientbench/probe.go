package main

import (
	"time"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/node"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/trace"
)

// sampleEvery is the timing subsample of the per-call probes.  A
// time.Now pair costs more than most scheduler calls, so timing every
// call would measure the timer; every call is counted, and a fixed
// one-in-sampleEvery subsample (by call index, so deterministic) is
// timed.
const sampleEvery = 64

// span is one probe point.
type span struct {
	calls   int64
	sampled int64
	ns      int64
}

// begin counts a call and starts its timer when the call is sampled.
func (s *span) begin() (time.Time, bool) {
	s.calls++
	if s.calls%sampleEvery != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

// end stops a sampled call's timer.
func (s *span) end(t0 time.Time, sampled bool) {
	if sampled {
		s.sampled++
		s.ns += int64(time.Since(t0))
	}
}

// add merges o into s.
func (s *span) add(o span) {
	s.calls += o.calls
	s.sampled += o.sampled
	s.ns += o.ns
}

// perCall is the sampled mean cost of one call net of the timer's own
// cost.  Calls cheaper than the timer's jitter can come out slightly
// negative; the value is reported as measured.
func (s span) perCall(timerNs float64) float64 {
	if s.sampled == 0 {
		return 0
	}
	return float64(s.ns)/float64(s.sampled) - timerNs
}

// total is the estimated time of all calls, in nanoseconds.
func (s span) total(timerNs float64) float64 { return s.perCall(timerNs) * float64(s.calls) }

// timerCost measures what a span adds to the call it times: the mean a
// span reports around an empty call.
func timerCost() float64 {
	var s span
	for s.sampled < 20000 {
		t0, ok := s.begin()
		s.end(t0, ok)
	}
	return float64(s.ns) / float64(s.sampled)
}

// schedProbe wraps a scheduler and counts and times its decisions.
type schedProbe struct {
	inner sim.Scheduler
	fspec bool
	env   *sim.Env

	static, dynamic, result, cycleStart span
	staticEmpty, dynamicEmpty           int64
	dropped                             int64
	stolen, retx, redundant             int64
}

func (p *schedProbe) Name() string { return p.inner.Name() }

func (p *schedProbe) Init(env *sim.Env) error {
	p.env = env
	return p.inner.Init(env)
}

// ResetReplica forwards the batch engine's in-place rewind, re-running
// Init for a scheduler without one — what the engine itself would do.
func (p *schedProbe) ResetReplica() error {
	if rr, ok := p.inner.(sim.ReplicaResettable); ok {
		return rr.ResetReplica()
	}
	return p.inner.Init(p.env)
}

func (p *schedProbe) CycleStart(cycle int64, now timebase.Macrotick) {
	t0, s := p.cycleStart.begin()
	p.inner.CycleStart(cycle, now)
	p.cycleStart.end(t0, s)
}

func (p *schedProbe) StaticSlot(ch frame.Channel, cycle int64, slot int, now timebase.Macrotick) *sim.Transmission {
	t0, s := p.static.begin()
	tx := p.inner.StaticSlot(ch, cycle, slot, now)
	p.static.end(t0, s)
	p.note(tx, &p.staticEmpty)
	return tx
}

func (p *schedProbe) DynamicSlot(ch frame.Channel, cycle int64, slotCounter, minislot, remaining int, now timebase.Macrotick) *sim.Transmission {
	t0, s := p.dynamic.begin()
	tx := p.inner.DynamicSlot(ch, cycle, slotCounter, minislot, remaining, now)
	p.dynamic.end(t0, s)
	p.note(tx, &p.dynamicEmpty)
	return tx
}

func (p *schedProbe) note(tx *sim.Transmission, empty *int64) {
	if tx == nil {
		*empty++
		return
	}
	if tx.Stolen {
		p.stolen++
	}
	if tx.Retx {
		p.retx++
	}
	if tx.Redundant {
		p.redundant++
	}
}

func (p *schedProbe) Result(tx *sim.Transmission, ok bool, now timebase.Macrotick) {
	t0, s := p.result.begin()
	p.inner.Result(tx, ok, now)
	p.result.end(t0, s)
}

func (p *schedProbe) InstanceDropped(in *node.Instance, now timebase.Macrotick) {
	p.dropped++
	p.inner.InstanceDropped(in, now)
}

// spans returns the scheduler's timed spans.
func (p *schedProbe) spans() []span { return []span{p.static, p.dynamic, p.result, p.cycleStart} }

// injProbe wraps a BER injector and counts and times its draws.
type injProbe struct {
	inner     *fault.BERInjector
	corrupts  span
	corrupted int64
}

func (p *injProbe) Corrupts(bits int) bool {
	t0, s := p.corrupts.begin()
	bad := p.inner.Corrupts(bits)
	p.corrupts.end(t0, s)
	if bad {
		p.corrupted++
	}
	return bad
}

func (p *injProbe) Stats() fault.Stats { return p.inner.Stats() }

// sinkProbe is a counting trace sink that times a subsample of its
// own Record calls: the price of the event stream itself.
type sinkProbe struct {
	record span
	kinds  [32]int64
}

func (p *sinkProbe) Record(ev trace.Event) {
	t0, s := p.record.begin()
	if k := int(ev.Kind); k >= 0 && k < len(p.kinds) {
		p.kinds[k]++
	}
	p.record.end(t0, s)
}

package sim

import (
	"fmt"
	"sort"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/node"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/topology"
	"github.com/flexray-go/coefficient/internal/trace"
)

// Compiled is the immutable, replica-independent half of a simulation:
// validated options with defaults applied, the compiled dispatch tables
// (slot→message, per-message wire timing, channel attachment) and the
// resolved pLatestTx — everything that depends only on (config, cluster,
// workload), not on the seed.  Build it once with Compile, then derive
// any number of RunStates from it; a Compiled is safe for concurrent use
// by NewState on multiple goroutines because every field is read-only
// after Compile returns.
type Compiled struct {
	opts Options
	// proto is the compiled prototype environment.  Its dispatch tables
	// are shared by every state; it owns no ECUs — NewState builds them.
	proto *Env
	// nodeIDs lists the cluster's node IDs in ascending order and
	// staticByNode maps node ID → static frame IDs, for building fresh
	// per-state ECUs.
	nodeIDs      []int
	staticByNode map[int][]int
}

// Compile validates the options, applies the defaults and builds the
// immutable artifact shared by all replicas.
func Compile(opts Options) (*Compiled, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.BitRate <= 0 {
		opts.BitRate = frame.DefaultBitRate
	}
	if len(opts.Cluster.Nodes) == 0 {
		opts.Cluster = topology.DualChannelBus(workloadNodes(opts.Workload))
	}
	if err := opts.Cluster.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadOptions, err)
	}

	cfg := opts.Config
	env := &Env{Cfg: cfg, BitRate: opts.BitRate, Set: opts.Workload, Cluster: opts.Cluster}
	staticByNode := make(map[int][]int)
	var maxDyn timebase.Macrotick
	for i := range opts.Workload.Messages {
		m := &opts.Workload.Messages[i]
		if _, ok := opts.Cluster.Node(m.Node); !ok {
			return nil, fmt.Errorf("%w: message %q on unknown node %d",
				ErrBadOptions, m.Name, m.Node)
		}
		switch m.Kind {
		case signal.Periodic:
			staticByNode[m.Node] = append(staticByNode[m.Node], m.ID)
			if !env.FitsStaticSlot(m) {
				return nil, fmt.Errorf("%w: static message %q (%d bits) does not fit a %d-macrotick slot at %d bit/s",
					ErrBadOptions, m.Name, m.Bits, cfg.StaticSlotLen, opts.BitRate)
			}
		case signal.Aperiodic:
			if d := env.FrameDuration(m); d > maxDyn {
				maxDyn = d
			}
		}
	}
	env.LatestTx = cfg.LatestTx
	if env.LatestTx == 0 {
		env.LatestTx = cfg.DeriveLatestTx(maxDyn)
	}
	env.compile()
	nodeIDs := make([]int, len(opts.Cluster.Nodes))
	for i, n := range opts.Cluster.Nodes {
		nodeIDs[i] = n.ID
	}
	sort.Ints(nodeIDs)
	return &Compiled{opts: opts, proto: env, nodeIDs: nodeIDs, staticByNode: staticByNode}, nil
}

// ReplicaOptions is the per-replica half of a run: the seed and the
// optional injectors and trace sink.  The caller owns the injectors and
// is expected to Reseed and reuse one pair across replicas so their
// memoized probability caches survive (fault.Reseeder); nil injectors
// mean a fault-free channel.
type ReplicaOptions struct {
	// Seed drives every random stream of the replica: arrivals, CRC
	// outcomes, clock drift and the scenario timeline.
	Seed uint64
	// InjectorA and InjectorB inject transient faults per channel.
	InjectorA, InjectorB fault.Injector
	// Sink optionally receives every bus event.  Use trace.New() to
	// retain events, a *trace.CountingSink for zero-allocation counting,
	// or leave it nil to discard events entirely.
	Sink trace.Sink
}

// RunState is the mutable half of a simulation: one engine, scheduler
// and environment reused across replicas.  The cycle is
//
//	state, _ := compiled.NewState(sched)
//	for _, seed := range seeds {
//	    state.Reset(ReplicaOptions{Seed: seed, ...})
//	    res, err := state.Run()
//	}
//
// Reset rewinds arenas by truncation, zeroes the CHI buffers and
// counters and re-seeds every RNG in place, so the steady state of a
// plain replica loop (no scenario, no timing layer) allocates nothing.
// A RunState is single-goroutine; run different states concurrently.
type RunState struct {
	eng   *engine
	noneA fault.None
	noneB fault.None
	// armed flips on Reset and off on Run, so a stale state cannot be
	// run twice against one replica's seed.
	armed bool
}

// NewState builds a fresh mutable run state against the compiled
// artifact: a new environment sharing the immutable dispatch tables but
// owning fresh ECUs, a new collector and releaser, and the given
// scheduler initialized against it.  Init sees the environment before
// the first Reset installs the replica's trace sink and timing monitor,
// so schedulers must read Env.Trace and Env.Sync at run time, through
// the shared *Env, never cache them in Init.
func (c *Compiled) NewState(sched Scheduler) (*RunState, error) {
	p := c.proto
	env := new(Env)
	*env = *p // shares the immutable dispatch tables
	env.ecuOrder = make([]*node.ECU, len(c.nodeIDs))
	env.ecuByID = make([]*node.ECU, len(p.attachedA))
	for i, id := range c.nodeIDs {
		ecu := node.NewECU(id, c.staticByNode[id])
		ecu.SetCapacities(c.opts.CHIStaticCapacity, c.opts.CHIDynamicCapacity)
		env.ecuOrder[i] = ecu
		if id >= 0 {
			env.ecuByID[id] = ecu
		}
	}

	eng := &engine{
		opts:     c.opts,
		sched:    sched,
		env:      env,
		col:      metrics.NewCollector(c.opts.Config),
		sink:     trace.NullSink{},
		latestTx: p.LatestTx,
		crcRNG:   fault.NewRNG(0), // re-seeded per replica by Reset
	}
	if c.opts.Mode == Streaming {
		eng.warmup = c.opts.Config.FromDuration(c.opts.Warmup)
	}
	env.Trace = eng.sink
	env.Gauges = eng.col.Adaptive()
	eng.rel = newReleaser(c.opts, env)
	eng.rel.overflow = func(in *node.Instance, rel timebase.Macrotick) {
		eng.dropInstance(in, rel)
	}
	if err := sched.Init(env); err != nil {
		return nil, fmt.Errorf("scheduler init: %w", err)
	}
	return &RunState{eng: eng}, nil
}

// Reset arms the state for one replica: it installs the sink and
// injectors, recompiles the scenario timeline, rebuilds the node watch
// and timing layer, re-seeds the CRC RNG, and rewinds the CHI buffers,
// metrics, releaser and scheduler.  Reset is the only place an engine is
// prepared for a seed — Run goes through it too — so a reused state and
// a fresh one run byte-identical replicas.  Construct-only branches
// (scenario compile, timing layer) allocate and are outside the
// alloc-free replica contract; the flagged constructs live in the
// unmarked helpers below.
//
//perf:hotpath
func (st *RunState) Reset(ro ReplicaOptions) error {
	eng := st.eng
	eng.seed = ro.Seed

	eng.sink = ro.Sink
	if eng.sink == nil {
		eng.sink = trace.NullSink{}
	}
	eng.env.Trace = eng.sink

	eng.injA, eng.injB = ro.InjectorA, ro.InjectorB
	if eng.injA == nil {
		st.noneA.Reseed(0)
		eng.injA = &st.noneA
	}
	if eng.injB == nil {
		st.noneB.Reseed(0)
		eng.injB = &st.noneB
	}

	eng.scn = nil
	eng.watchedNodes, eng.nodeDown = nil, nil
	if eng.opts.Scenario != nil {
		if err := st.resetScenario(ro.Seed); err != nil {
			return err
		}
	}

	eng.tvA, _ = eng.injA.(fault.TimeVarying)
	eng.tvB, _ = eng.injB.(fault.TimeVarying)
	eng.crcRNG.Seed(ro.Seed ^ seedCRC)
	st.resetTiming()

	for _, ecu := range eng.env.OrderedECUs() {
		ecu.Reset()
	}
	eng.col.Reset()
	eng.rel.reset(ro.Seed)
	eng.total, eng.done = 0, 0
	if err := st.resetScheduler(); err != nil {
		return err
	}
	st.armed = true
	return nil
}

// Run executes the replica armed by the last Reset.
func (st *RunState) Run() (Result, error) {
	if !st.armed {
		return Result{}, errNotArmed
	}
	st.armed = false
	return st.eng.run()
}

var errNotArmed = fmt.Errorf("%w: RunState.Run without a preceding Reset", ErrBadOptions)

// resetScenario recompiles the scripted fault timeline for the replica
// seed, applies its channel-injector overrides and watches its nodes:
// scenario channels override the replica injectors so the scripted
// timeline is the single source of channel fault truth, and the nodes
// with crash/recovery events get node-down/node-up trace transitions.
// Scenario replicas allocate here (a fresh Runtime per seed); the
// alloc-free contract covers scenario-less runs.
func (st *RunState) resetScenario(seed uint64) error {
	eng := st.eng
	rt, err := eng.opts.Scenario.Compile(eng.opts.Config, seed)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadOptions, err)
	}
	eng.scn = rt
	if inj := rt.Injector(frame.ChannelA); inj != nil {
		eng.injA = inj
	}
	if inj := rt.Injector(frame.ChannelB); inj != nil {
		eng.injB = inj
	}
	if ids := rt.NodeIDs(); len(ids) > 0 {
		eng.watchedNodes = ids
		eng.nodeDown = make(map[int]bool, len(ids))
	}
	return nil
}

// resetTiming rebuilds the local-clock layer for the new seed.  The
// layer's state graph (per-node clocks, POC, guardians) is rebuilt from
// scratch — timing replicas allocate and are outside the alloc-free
// contract, like scenario replicas.
func (st *RunState) resetTiming() {
	eng := st.eng
	eng.timing = nil
	eng.env.Sync = nil
	if eng.opts.Timing == nil && (eng.scn == nil || !eng.scn.HasTimingFaults()) {
		return
	}
	topts := TimingOptions{}
	if eng.opts.Timing != nil {
		topts = *eng.opts.Timing
	}
	eng.timing = newTimingState(topts, eng)
	eng.env.Sync = eng.timing.monitor
}

// resetScheduler rewinds the scheduler in place for the next replica.
func (st *RunState) resetScheduler() error {
	if err := st.eng.sched.ResetReplica(); err != nil {
		return fmt.Errorf("scheduler reset: %w", err)
	}
	return nil
}

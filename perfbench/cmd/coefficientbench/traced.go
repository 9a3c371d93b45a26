package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/serve"
)

// runTraced is the outside-in traced pass.  It measures every layer,
// whatever --workload says, so each traced run reports the same
// per-layer metrics: the engine layers on a serial Figure 5 grid driven
// through sim's batch API, the experiment layer and parallel speedup on
// the sweep, and the serving layers on a fixed daemon job mix.  The
// simulated statistics of every traced pass are checked against the
// untraced run of the same work.
func runTraced(b *bench, cfg config) error {
	b.set("runner.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	b.set("runner.workers", float64(procs()))
	b.set("serve.clients", float64(procs()))
	if err := traceFig5(b, cfg, timerCost()); err != nil {
		return err
	}
	if err := traceSweep(b, cfg); err != nil {
		return err
	}
	return traceDaemon(b, cfg)
}

// traceFig5 measures the engine layers, the fig5 speedup and the fig5
// CPU shares.
func traceFig5(b *bench, cfg config, timerNs float64) error {
	seed := runner.CellSeed(cfg.seed, streamFig5, 0)
	reps := fig5Replicas(cfg) / 2
	// Warm up (heap growth, first-touch) before anything is timed.
	_, err := missRatio(seed, 1, procs(), cfg.quick)
	if !b.op(err) {
		return err
	}

	t0 := time.Now()
	ref, err := missRatio(seed, reps, 1, cfg.quick)
	serial := time.Since(t0)
	if !b.op(err) {
		return err
	}
	t0 = time.Now()
	par, err := missRatio(seed, reps, procs(), cfg.quick)
	parallel := time.Since(t0)
	if b.op(err) {
		b.check(reflect.DeepEqual(par, ref), "fig5: parallel grid differs from the 1-worker grid")
	}
	b.set("runner.speedup_fig5", serial.Seconds()/parallel.Seconds())

	t0 = time.Now()
	plain, tm, err := fig5Direct(seed, reps, cfg.quick, nil)
	untraced := time.Since(t0)
	if !b.op(err) {
		return err
	}
	if err := missRowsEqual(plain, ref); err != nil {
		b.op(fmt.Errorf("fig5: grid driven through sim.Compile/NewState/Reset/Run differs from experiment.MissRatio: %w", err))
	}
	probes := &fig5Probes{sink: &sinkProbe{}}
	t0 = time.Now()
	traced, ttm, err := fig5Direct(seed, reps, cfg.quick, probes)
	tracedWall := time.Since(t0)
	if !b.op(err) {
		return err
	}
	if err := missRowsEqual(traced, plain); err != nil {
		b.op(fmt.Errorf("fig5: traced statistics differ from untraced: %w", err))
	}
	b.check(ttm.cycles == tm.cycles && ttm.delivered == tm.delivered && ttm.missed == tm.missed,
		"fig5: traced counts differ from untraced")
	b.set("trace.overhead_fig5", tracedWall.Seconds()/untraced.Seconds())

	// Scheduler layers, per policy.
	var schedNs float64
	for _, pol := range []struct {
		name  string
		fspec bool
	}{{"core", false}, {"fspec", true}} {
		var static, dynamic, result, cycleStart span
		var staticEmpty, dynamicEmpty, dropped, stolen, retx, redundant int64
		for _, p := range probes.scheds {
			if p.fspec != pol.fspec {
				continue
			}
			static.add(p.static)
			dynamic.add(p.dynamic)
			result.add(p.result)
			cycleStart.add(p.cycleStart)
			staticEmpty += p.staticEmpty
			dynamicEmpty += p.dynamicEmpty
			dropped += p.dropped
			stolen += p.stolen
			retx += p.retx
			redundant += p.redundant
			for _, s := range p.spans() {
				schedNs += s.total(timerNs)
			}
		}
		n := pol.name
		b.set(n+".static_calls", float64(static.calls))
		b.set(n+".static_empty_share", share(staticEmpty, static.calls))
		b.set(n+".static_ns", static.perCall(timerNs))
		b.set(n+".dynamic_calls", float64(dynamic.calls))
		b.set(n+".dynamic_empty_share", share(dynamicEmpty, dynamic.calls))
		b.set(n+".dynamic_ns", dynamic.perCall(timerNs))
		b.set(n+".result_ns", result.perCall(timerNs))
		if pol.fspec {
			b.set("fspec.dropped_calls", float64(dropped))
			b.set("fspec.redundant_tx", float64(redundant))
		} else {
			b.set("core.cycle_start_ns", cycleStart.perCall(timerNs))
			b.set("core.stolen_tx", float64(stolen))
			b.set("core.retx_tx", float64(retx))
		}
	}

	var corrupts span
	var corrupted int64
	for _, p := range probes.injs {
		corrupts.add(p.corrupts)
		corrupted += p.corrupted
	}
	b.set("fault.corrupts_calls", float64(corrupts.calls))
	b.set("fault.corrupts_ns", corrupts.perCall(timerNs))
	b.set("fault.corrupted", float64(corrupted))

	var events int64
	for _, n := range probes.sink.kinds {
		events += n
	}
	b.set("trace.events", float64(events))
	b.set("trace.record_ns", probes.sink.record.perCall(timerNs))

	// Engine entry points, timed directly on the untraced pass.  The
	// engine's self time is the untraced Run time less the scheduler and
	// fault spans the traced pass measured on the same replicas: the
	// untraced pass pays neither the probes, their timers nor the
	// counting sink.
	var untracedRun time.Duration
	for _, d := range tm.run {
		untracedRun += d
	}
	self := float64(untracedRun) - schedNs - corrupts.total(timerNs)
	b.set("sim.cycles", float64(tm.cycles))
	b.set("sim.delivered", float64(tm.delivered))
	b.set("sim.missed", float64(tm.missed))
	b.set("sim.compile_ms", mean(seconds(tm.compile))*1e3)
	b.set("sim.new_state_ms", mean(seconds(tm.newState))*1e3)
	b.set("sim.reset_us", mean(seconds(tm.reset))*1e6)
	b.set("sim.run_ms", mean(seconds(tm.run))*1e3)
	b.set("sim.self_ns_per_cycle", self/float64(tm.cycles))
	b.set("sim.allocs_per_replica", float64(tm.mallocs)/float64(tm.replicas))
	b.notef("fig5 traced: %d replicas serial, overhead %.2fx, timer %.0f ns, 1-in-%d calls timed",
		tm.replicas, tracedWall.Seconds()/untraced.Seconds(), timerNs, sampleEvery)

	shares, err := profileShares(func() error {
		_, err := missRatio(seed, fig5Replicas(cfg), procs(), cfg.quick)
		return err
	})
	if !b.op(err) {
		return err
	}
	setShares(b, "fig5", shares)
	return nil
}

// share is part/whole, 0 for an empty whole.
func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func setShares(b *bench, workload string, shares map[string]float64) {
	for _, pkg := range cpuPackages {
		b.set("cpu_share."+workload+"."+pkg, shares[pkg])
	}
}

// traceSweep runs the correctness gate of the quick sweep against the
// committed tables, then times each experiment of the full sweep
// serially and at nproc workers — the sweep speedup and the experiment
// layer — and takes the sweep's CPU shares from the parallel pass.
func traceSweep(b *bench, cfg config) error {
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	gateQuickSweep(b, refs, procs())
	seed := runner.CellSeed(cfg.seed, streamSweep, 0)
	serialTables, serial, err := sweep(seed, cfg.quick, 1)
	if !b.op(err) {
		return err
	}
	var parTables []string
	var par []time.Duration
	shares, err := profileShares(func() error {
		var err error
		parTables, par, err = sweep(seed, cfg.quick, procs())
		return err
	})
	if !b.op(err) {
		return err
	}
	b.check(reflect.DeepEqual(parTables, serialTables), "sweep: parallel tables differ from the 1-worker tables")
	var serialSum, parSum time.Duration
	for i, name := range sweepExperiments {
		serialSum += serial[i]
		parSum += par[i]
		b.set("experiment."+name+"_s", par[i].Seconds())
	}
	b.set("runner.speedup_sweep", serialSum.Seconds()/parSum.Seconds())
	setShares(b, "sweep", shares)
	return nil
}

// tracedJobs is the fixed fresh-job count of each traced daemon pass.
func tracedJobs(cfg config) int {
	if cfg.quick {
		return 4
	}
	return 64
}

// daemonPassResult is one fixed-mix daemon pass.
type daemonPassResult struct {
	// wall is the second phase's, from its first submission to its last
	// job done: every job of it fits in the clients' first submissions,
	// so the daemon is busy throughout and no poll period is counted.
	wall    time.Duration
	tr      *clientTrace
	mallocs uint64
	// results are the simulated results of every fresh job, by scenario
	// hash (see simulated).
	results map[string][]byte
	// rtNs and rtN are the client-side round trips of every request.
	rtNs, rtN int64
}

// daemonPass runs the fixed job mix on a fresh daemon: tracedJobs fresh
// jobs, then as many again with every repeatEvery-th submission a cache
// hit.  probe is nil for the untraced pass.
func daemonPass(b *bench, cfg config, probe func(dir string) *daemonProbe) (*daemonPassResult, *daemonProbe, error) {
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.buildDir, "daemon-state-")
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(b.log, "coefficientbench: remove daemon state:", err)
		}
	}()
	var p *daemonProbe
	if probe != nil {
		p = probe(dir)
	}
	d, err := startDaemon(dir, p)
	if err != nil {
		return nil, nil, err
	}
	seed := runner.CellSeed(cfg.seed, streamDaemonJob, 0)
	n := tracedJobs(cfg)
	res := &daemonPassResult{tr: newClientTrace()}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	firsts := prefill(b, d, seed, n, res.tr)
	m := &mix{seed: seed, limit: int64(2 * n), firsts: firsts}
	m.next.Store(int64(n))
	t0 := time.Now()
	m.drive(b, d, res.tr)
	res.wall = res.tr.lastDone().Sub(t0)
	runtime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.results = map[string][]byte{}
	for hash := range res.tr.submitted {
		body, err := d.result(hash)
		if b.op(err) {
			res.results[hash], err = simulated(body)
			b.op(err)
		}
	}
	res.rtNs, res.rtN = d.rtNs.Load(), d.rtN.Load()
	b.op(d.stop())
	return res, p, nil
}

// simulated is a stored result without the ID of the job that computed
// it first: job IDs carry the admission order, which two passes of
// concurrent clients need not share; the rest is the simulation's.
func simulated(body []byte) ([]byte, error) {
	var res serve.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	res.JobID = ""
	return json.Marshal(res)
}

// traceDaemon measures the serving and durability layers.
func traceDaemon(b *bench, cfg config) error {
	plain, _, err := daemonPass(b, cfg, nil)
	if err != nil {
		return err
	}
	res, p, err := daemonPass(b, cfg, newDaemonProbe)
	if err != nil {
		return err
	}
	tr := res.tr
	b.set("trace.overhead_daemon", res.wall.Seconds()/plain.wall.Seconds())
	b.set("serve.allocs_per_job", float64(plain.mallocs)/float64(len(plain.tr.fresh)+len(plain.tr.hits)))

	fresh := len(tr.fresh)
	b.check(fresh == 2*tracedJobs(cfg), "daemon: %d fresh jobs done, want %d", fresh, 2*tracedJobs(cfg))
	b.check(len(res.results) == fresh && reflect.DeepEqual(res.results, plain.results),
		"daemon: traced results differ from untraced")
	var queueWait, run []float64
	p.mu.Lock()
	defer p.mu.Unlock()
	fs := p.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for hash, sent := range tr.submitted {
		if at, ok := p.attemptAt[hash]; ok {
			queueWait = append(queueWait, at.Sub(sent).Seconds())
			if done, ok := fs.createdAt[hash]; ok {
				run = append(run, done.Sub(at).Seconds())
			}
		}
	}
	b.check(p.handled == int(res.rtN), "daemon: handler saw %d requests, clients sent %d", p.handled, res.rtN)
	b.set("serve.submit_ms", median(seconds(tr.submit))*1e3)
	b.set("serve.queue_wait_ms", median(queueWait)*1e3)
	b.set("serve.run_ms", median(run)*1e3)
	b.set("serve.poll_ms", tr.pollTime.Seconds()*1e3/float64(tr.polls))
	b.set("serve.polls_per_job", float64(tr.polls)/float64(fresh))
	b.set("serve.cache_hit_ms", median(seconds(tr.hits))*1e3)
	b.set("serve.http_overhead_ms", float64(res.rtNs-p.handlerNs)/float64(res.rtN)/1e6)

	b.set("journal.write_us", mean(seconds(fs.walWrites))*1e6)
	b.set("journal.sync_us", mean(seconds(fs.walSyncs))*1e6)
	b.set("journal.syncs_per_job", float64(len(fs.walSyncs))/float64(fresh))
	b.set("journal.bytes_per_job", float64(fs.walBytes)/float64(fresh))
	b.set("journal.compactions", float64(fs.compactions))
	b.set("resultstore.put_ms", (mean(seconds(fs.puts))+mean(seconds(fs.resultDirSyn)))*1e3)
	b.set("resultstore.syncs_per_job", float64(fs.resultSyncs+len(fs.resultDirSyn))/float64(fresh))
	b.notef("daemon traced: %d fresh jobs, %d cache hits, %d clients, overhead %.2fx",
		fresh, len(tr.hits), procs(), res.wall.Seconds()/plain.wall.Seconds())
	return nil
}

package main

// metricSpec names one reported metric.  The lists below are the
// benchmark's contract and must match BENCHMARK.json (a test checks
// both directions).
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is printed by every untraced run.  Each workload gives the
// names its own meaning (see README.md):
//
//	throughput_per_s  fig5-mc replicas/s (median grid call),
//	                  daemon-mixed jobs/s (median round), both at the
//	                  reference host speed (see adjusted)
//	live_heap_mb      fig5-mc peak live heap, daemon-mixed 90th
//	                  percentile of the live heap over the collections
//	setup_s           time to the first answer: 1-replica grid call,
//	                  daemon restart to /readyz
var endToEnd = []metricSpec{
	{"throughput_per_s", "1/s", "higher"},
	{"live_heap_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// sweepExperiments is the CLI's `all` list, in its order.
var sweepExperiments = []string{
	"fig1", "fig2", "fig3", "fig4", "fig4a", "fig5",
	"ablation", "synthesis", "wcrt", "degradation", "timing",
}

// cpuPackages are the packages whose CPU share is reported; "gc" is the
// runtime's collector.
var cpuPackages = []string{"sim", "core", "fspec", "slack", "fault", "node", "metrics", "trace", "gc"}

// perLayer is printed by every traced run.  Counters marked exact in
// exactCounters repeat exactly at a fixed seed.
var perLayer = func() []metricSpec {
	l := []metricSpec{
		{"runner.gomaxprocs", "count", "higher"},
		{"runner.workers", "count", "higher"},
		{"serve.clients", "count", "higher"},
		{"trace.overhead_fig5", "ratio", "lower"},
		{"trace.overhead_daemon", "ratio", "lower"},
	}
	for _, pol := range []string{"core", "fspec"} {
		l = append(l,
			metricSpec{pol + ".static_calls", "count", "lower"},
			metricSpec{pol + ".static_empty_share", "share", "lower"},
			metricSpec{pol + ".static_ns", "ns", "lower"},
			metricSpec{pol + ".dynamic_calls", "count", "lower"},
			metricSpec{pol + ".dynamic_empty_share", "share", "lower"},
			metricSpec{pol + ".dynamic_ns", "ns", "lower"},
			metricSpec{pol + ".result_ns", "ns", "lower"},
		)
	}
	l = append(l,
		metricSpec{"core.cycle_start_ns", "ns", "lower"},
		metricSpec{"core.stolen_tx", "count", "higher"},
		metricSpec{"core.retx_tx", "count", "lower"},
		metricSpec{"fspec.dropped_calls", "count", "lower"},
		metricSpec{"fspec.redundant_tx", "count", "lower"},
		metricSpec{"fault.corrupts_calls", "count", "lower"},
		metricSpec{"fault.corrupts_ns", "ns", "lower"},
		metricSpec{"fault.corrupted", "count", "lower"},
		metricSpec{"trace.events", "count", "lower"},
		metricSpec{"trace.record_ns", "ns", "lower"},
		metricSpec{"sim.cycles", "count", "lower"},
		metricSpec{"sim.delivered", "count", "higher"},
		metricSpec{"sim.missed", "count", "lower"},
		metricSpec{"sim.compile_ms", "ms", "lower"},
		metricSpec{"sim.new_state_ms", "ms", "lower"},
		metricSpec{"sim.reset_us", "us", "lower"},
		metricSpec{"sim.run_ms", "ms", "lower"},
		metricSpec{"sim.self_ns_per_cycle", "ns", "lower"},
		metricSpec{"sim.allocs_per_replica", "count", "lower"},
		metricSpec{"runner.speedup_fig5", "ratio", "higher"},
		metricSpec{"runner.speedup_sweep", "ratio", "higher"},
	)
	for _, name := range sweepExperiments {
		l = append(l, metricSpec{"experiment." + name + "_s", "s", "lower"})
	}
	l = append(l,
		metricSpec{"serve.submit_ms", "ms", "lower"},
		metricSpec{"serve.queue_wait_ms", "ms", "lower"},
		metricSpec{"serve.run_ms", "ms", "lower"},
		metricSpec{"serve.poll_ms", "ms", "lower"},
		metricSpec{"serve.polls_per_job", "count", "lower"},
		metricSpec{"serve.cache_hit_ms", "ms", "lower"},
		metricSpec{"serve.http_overhead_ms", "ms", "lower"},
		metricSpec{"serve.allocs_per_job", "count", "lower"},
		metricSpec{"journal.write_us", "us", "lower"},
		metricSpec{"journal.sync_us", "us", "lower"},
		metricSpec{"journal.syncs_per_job", "count", "lower"},
		metricSpec{"journal.bytes_per_job", "bytes", "lower"},
		metricSpec{"journal.compactions", "count", "lower"},
		metricSpec{"resultstore.put_ms", "ms", "lower"},
		metricSpec{"resultstore.syncs_per_job", "count", "lower"},
	)
	for _, w := range []string{"fig5", "sweep"} {
		for _, pkg := range cpuPackages {
			l = append(l, metricSpec{"cpu_share." + w + "." + pkg, "share", "lower"})
		}
	}
	return l
}()

// exactCounters are the per-layer counters that repeat exactly at a
// fixed seed; any change in them is an algorithmic change, whatever the
// wall clock says.
var exactCounters = map[string]bool{
	"core.static_calls": true, "core.static_empty_share": true,
	"core.dynamic_calls": true, "core.dynamic_empty_share": true,
	"core.stolen_tx": true, "core.retx_tx": true,
	"fspec.static_calls": true, "fspec.static_empty_share": true,
	"fspec.dynamic_calls": true, "fspec.dynamic_empty_share": true,
	"fspec.dropped_calls": true, "fspec.redundant_tx": true,
	"fault.corrupts_calls": true, "fault.corrupted": true,
	"trace.events":  true,
	"sim.cycles":    true,
	"sim.delivered": true, "sim.missed": true,
	"journal.syncs_per_job": true, "journal.bytes_per_job": true,
	"journal.compactions": true, "resultstore.syncs_per_job": true,
}

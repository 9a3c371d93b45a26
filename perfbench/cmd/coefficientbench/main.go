// Command coefficientbench is the repository's end-to-end benchmark.
// One binary drives two workloads in-process through the public
// packages — Figure 5 Monte-Carlo (fig5-mc) and the simulation daemon
// under a closed-loop HTTP mix (daemon-mixed) — checks every output it
// times, and prints one JSON result line last:
//
//	coefficientbench --workload fig5-mc --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of the chosen workload.
// --trace 1 makes the outside-in traced pass instead and prints the
// per-layer metrics; that pass covers every layer, the full experiment
// sweep's included, whatever the workload.  Run it from the repository root (perfbench/run.sh does):
// the correctness gate reads the committed results/BENCH_*.json tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// buildDir holds the daemon's temporary state directory.
	buildDir string
	// quick shrinks horizons and repetition counts; only the benchmark's
	// own tests set it.
	quick bool
}

// workloads maps a workload name to its untraced run.
var workloads = map[string]func(*bench, config) error{
	"fig5-mc":      runFig5,
	"daemon-mixed": runDaemon,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coefficientbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: fig5-mc or daemon-mixed")
		seed     = fs.Uint64("seed", 1, "workload seed; every program input derives from it")
		secs     = fs.Int("seconds", 10, "length of the timed phase in seconds")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced pass with per-layer metrics")
		buildDir = fs.String("build-dir", ".bench_build", "directory for temporary daemon state")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "coefficientbench: need --workload fig5-mc|daemon-mixed, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *secs, trace: *trace == 1, buildDir: *buildDir}
	b, err := execute(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "coefficientbench:", err)
		return 1
	}
	if err := b.emit(stdout); err != nil {
		fmt.Fprintln(stderr, "coefficientbench:", err)
		return 1
	}
	if b.failed > 0 {
		return 1
	}
	return 0
}

// execute runs one invocation and returns its filled-in result.  An
// error means the benchmark could not run at all (no checkout, no
// reference tables); a failed check is counted in the result instead.
func execute(cfg config, stdout, stderr io.Writer) (*bench, error) {
	if err := checkCheckout(); err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, out: stdout, log: stderr, metrics: map[string]metric{}}
	b.notef("config workload=%s seed=%d seconds=%d trace=%t gomaxprocs=%d workers=%d clients=%d",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), procs(), procs())
	var err error
	if cfg.trace {
		err = runTraced(b, cfg)
	} else {
		err = workloads[cfg.workload](b, cfg)
	}
	if err != nil {
		return nil, err
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := b.metrics[m.Name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
	}
	return b, nil
}

// checkCheckout fails fast outside a full checkout: the benchmark needs
// the committed reference tables.
func checkCheckout() error {
	for _, name := range sweepExperiments {
		path := filepath.Join("results", "BENCH_"+name+".json")
		if _, err := os.Stat(path); err != nil {
			return fmt.Errorf("reference table missing (run from the repository root): %w", err)
		}
	}
	return nil
}

// procs is the worker and client count: one per usable CPU.
func procs() int { return runtime.GOMAXPROCS(0) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench accumulates one run's operations, checks and metrics.
type bench struct {
	cfg       config
	out, log  io.Writer
	attempted int
	failed    int
	metrics   map[string]metric
}

// notef prints a human-readable report line (never the last line).
func (b *bench) notef(format string, args ...any) {
	fmt.Fprintf(b.out, "# "+format+"\n", args...)
}

// op counts one attempted operation; a non-nil error fails it.
func (b *bench) op(err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintln(b.log, "coefficientbench: FAILED:", err)
		return false
	}
	return true
}

// check counts one correctness check.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if ok {
		return b.op(nil)
	}
	return b.op(fmt.Errorf(format, args...))
}

// set records a metric; its unit comes from the catalog.
func (b *bench) set(name string, value float64) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				b.metrics[name] = metric{Value: value, Unit: m.Unit}
				return
			}
		}
	}
	panic("coefficientbench: metric not in catalog: " + name)
}

// emit prints the sorted metrics as report lines and the JSON result as
// the last line of standard output.
func (b *bench) emit(w io.Writer) error {
	names := make([]string, 0, len(b.metrics))
	for name := range b.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := b.metrics[name]
		mark := ""
		if b.cfg.trace && exactCounters[name] {
			mark = "  (exact)"
		}
		fmt.Fprintf(w, "# %-28s %14.6g %s%s\n", name, m.Value, m.Unit, mark)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, b.metrics}
	return json.NewEncoder(w).Encode(res)
}

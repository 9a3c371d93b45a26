package experiment

import (
	"context"
	"fmt"
	"time"

	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/workload"
)

// RunningTimeRow is one point of Figures 1-2: the time to drain a fixed
// batch of message instances.
type RunningTimeRow struct {
	// Workload is "BBW", "ACC" or "synthetic".
	Workload string
	// Slots is the static slot count (80 or 120).
	Slots int
	// Messages is the number of static messages in the batch.
	Messages int
	// Scheduler is the policy name.
	Scheduler string
	// RunningTime is the simulated makespan.
	RunningTime time.Duration
	// Retransmissions counts retransmission attempts on the wire.
	Retransmissions int64
}

// RunningTimeOptions configures the Figures 1-2 harness.
type RunningTimeOptions struct {
	// Scenario selects the (BER, goal) pair: BER7 for Figure 1, BER9 for
	// Figure 2.
	Scenario Scenario
	// Seed drives arrivals and fault injection.
	Seed uint64
	// Quick shrinks the batch for tests and smoke runs.
	Quick bool
	// Slots lists the static slot counts (default 80 and 120).
	Slots []int
	// MessageCounts sweeps the number of static messages for the
	// real-world sets (default 5, 10, 15, 20; capped at 20).
	MessageCounts []int
	// SyntheticCounts sweeps the synthetic set sizes (default 20, 40, 60,
	// 80).
	SyntheticCounts []int
	// Parallel is the sweep worker count: 0 uses every core, 1 runs
	// serially.  The rows are identical for every value (see
	// internal/runner's determinism contract).
	Parallel int
	// Ctx optionally bounds the sweep: every cell checks it before
	// starting, so a deadline or cancellation stops the run at the next
	// cell boundary.  Nil means run to completion.
	Ctx context.Context
}

func (o *RunningTimeOptions) fill() {
	if o.Scenario.Label == "" {
		o.Scenario = BER7()
	}
	if len(o.Slots) == 0 {
		o.Slots = []int{80, 120}
	}
	if len(o.MessageCounts) == 0 {
		o.MessageCounts = []int{5, 10, 15, 20}
	}
	if len(o.SyntheticCounts) == 0 {
		o.SyntheticCounts = []int{20, 40, 60, 80}
	}
}

// runningTimeCell is one independent point of the Figures 1-2 sweep:
// one (slot count, workload, set size) batch run producing both
// schedulers' rows.
type runningTimeCell struct {
	slots    int
	workload string // "BBW", "ACC" or "synthetic"
	n        int
}

// runningTimeCells enumerates the sweep in the canonical (serial) order.
func runningTimeCells(opts RunningTimeOptions) []runningTimeCell {
	var cells []runningTimeCell
	for _, slots := range opts.Slots {
		// Real-world application sets (Figure 1a / 2a).
		for _, name := range []string{"BBW", "ACC"} {
			for _, n := range opts.MessageCounts {
				cells = append(cells, runningTimeCell{slots: slots, workload: name, n: n})
			}
		}
		// Synthetic sets (Figure 1b / 2b).
		for _, n := range opts.SyntheticCounts {
			if n > slots {
				continue // static frame IDs must fit the slot range
			}
			cells = append(cells, runningTimeCell{slots: slots, workload: "synthetic", n: n})
		}
	}
	return cells
}

// RunningTime reproduces Figures 1 (scenario BER-7) and 2 (BER-9): batch
// makespans for BBW, ACC and synthetic workloads under both schedulers, for
// 80- and 120-slot cycles.  Cells run on Parallel workers; each cell
// builds its own workload, setup, schedulers and injectors, so rows are
// identical at every parallelism degree.
func RunningTime(opts RunningTimeOptions) ([]RunningTimeRow, error) {
	opts.fill()
	cells := runningTimeCells(opts)
	return runner.FlatMapCtx(opts.Ctx, opts.Parallel, len(cells), func(i int) ([]RunningTimeRow, error) {
		c := cells[i]
		var (
			set signal.Set
			err error
			n   = c.n
		)
		switch c.workload {
		case "synthetic":
			var syn signal.Set
			syn, err = workload.Synthetic(workload.SyntheticOptions{
				Messages: n,
				Seed:     deriveSeed(opts.Seed, seedStreamSynthetic, uint64(n)),
			})
			if err == nil {
				set, err = runningTimeWorkload(syn, n, c.slots, opts.Seed)
			}
		default:
			base := workload.BBW()
			if c.workload == "ACC" {
				base = workload.ACC()
			}
			if n > len(base.Messages) {
				n = len(base.Messages)
			}
			set, err = runningTimeWorkload(base, n, c.slots, opts.Seed)
		}
		if err != nil {
			return nil, err
		}
		return runningTimeBatch(set, c.slots, opts, c.workload, n)
	})
}

// runningTimeWorkload takes the first n static messages of base and adds
// the SAE aperiodic set with frame IDs starting just above the static slot
// range (81 or 121, per the paper).
func runningTimeWorkload(base signal.Set, n, slots int, seed uint64) (signal.Set, error) {
	static := signal.Set{
		Name:     base.Name,
		Messages: append([]signal.Message(nil), base.Messages[:n]...),
	}
	saeCount := n
	if saeCount > 30 {
		saeCount = 30
	}
	sae, err := workload.SAEAperiodic(workload.SAEAperiodicOptions{
		FirstID: slots + 1,
		Count:   saeCount,
		Seed:    seed,
	})
	if err != nil {
		return signal.Set{}, err
	}
	return workload.Merge(fmt.Sprintf("%s-%d", base.Name, n), static, sae)
}

func runningTimeBatch(set signal.Set, slots int, opts RunningTimeOptions, name string, n int) ([]RunningTimeRow, error) {
	setup, err := RunningTimeSetup(set, slots)
	if err != nil {
		return nil, err
	}
	var rows []RunningTimeRow
	for _, sched := range schedulers(set, opts.Scenario) {
		injA, injB, err := injectors(opts.Scenario, opts.Seed)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(sim.Options{
			Config:         setup.Config,
			Workload:       set,
			BitRate:        setup.BitRate,
			Mode:           sim.Batch,
			BatchInstances: batchInstances(opts.Quick),
		}, sim.ReplicaOptions{Seed: opts.Seed, InjectorA: injA, InjectorB: injB}, sched)
		if err != nil {
			return nil, fmt.Errorf("%s/%s/%d slots: %w", name, sched.Name(), slots, err)
		}
		rows = append(rows, RunningTimeRow{
			Workload:        name,
			Slots:           slots,
			Messages:        n,
			Scheduler:       res.Scheduler,
			RunningTime:     res.Report.Makespan,
			Retransmissions: res.Report.Retransmissions,
		})
	}
	return rows, nil
}

// RunningTimeTable renders the rows as an aligned text table.
func RunningTimeTable(title string, rows []RunningTimeRow) Table {
	t := Table{
		Title:  title,
		Header: []string{"workload", "slots", "messages", "scheduler", "running time", "retx"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Workload,
			fmt.Sprintf("%d", r.Slots),
			fmt.Sprintf("%d", r.Messages),
			r.Scheduler,
			r.RunningTime.String(),
			fmt.Sprintf("%d", r.Retransmissions),
		})
	}
	return t
}

// Package slack implements the slack-stealing machinery of the paper
// (Sections III-B, III-C and III-F): an exact offline analysis of the
// fixed-priority periodic schedule, and a runtime slack stealer that admits
// hard-deadline aperiodic tasks (retransmitted segments) and serves
// soft-deadline aperiodic tasks (dynamic segments) in stolen slack without
// endangering any periodic deadline.
//
// Terminology follows Thuel–Lehoczky and the paper.  With tasks indexed by
// decreasing priority, "level i" (1-based) covers the i highest-priority
// tasks.  A level-i idle instant is one at which no task of level i has
// pending work; the cumulative level-i idle time A_i(t) is the amount of
// slack that processing at priority i or higher may steal before t.  The
// runtime invariant is
//
//	C(t) + I_i(t) ≤ A_i(d)    for every future deadline d of task i,
//
// where C(t) is aperiodic processing consumed so far and I_i(t) is level-i
// inactivity (level-i idle time that elapsed unused).  The available slack
// at top priority is S(t) = min_i [A_i(next deadline of τ_i) − C(t) −
// I_i(t)], the paper's S_{i,t} = A_{i(r_i(t)+1)} − C_i(t) − I_i(t).
package slack

import (
	"errors"
	"fmt"
	"sort"

	"github.com/flexray-go/coefficient/internal/task"
	"github.com/flexray-go/coefficient/internal/timebase"
)

// Errors returned by the analysis.
var (
	// ErrUnschedulable is returned when a periodic job misses its deadline
	// in the fault-free schedule: there is no slack to steal from an
	// infeasible task set.
	ErrUnschedulable = errors.New("slack: periodic task set unschedulable")
	// ErrEmptySet is returned for an empty task set.
	ErrEmptySet = errors.New("slack: empty task set")
	// ErrBadLevel is returned for out-of-range level queries.
	ErrBadLevel = errors.New("slack: level out of range")
)

// Analysis holds the offline level-i idle-time tables of a periodic task
// set.  It is immutable after construction and safe for concurrent use.
type Analysis struct {
	set *task.Set
	// window is the simulated horizon: maxOffset + 2·hyperperiod.
	window timebase.Macrotick
	// hyper is the task-set hyperperiod.
	hyper timebase.Macrotick
	// maxOff is the largest release offset.
	maxOff timebase.Macrotick
	// levels[i] holds the cumulative idle breakpoints of 1-based level
	// i+1: at time ts[k] the cumulative level-(i+1) idle equals cum[k],
	// and idleness accrues linearly until ts[k+1] if the interval
	// starting at ts[k] is idle for this level.
	levels []levelTable
	// idlePerHyper[i] is the level-(i+1) idle time accrued per
	// hyperperiod in steady state, used to extrapolate beyond the window.
	idlePerHyper []timebase.Macrotick
}

// levelTable is a step-linear cumulative idle function.
type levelTable struct {
	// starts[k] is the start of the k-th idle interval of this level,
	// ends[k] its end, and cum[k] the cumulative idle before it.
	starts, ends, cum []timebase.Macrotick
}

// interval is a run of schedule time executing one task (or idling).
type interval struct {
	start, end timebase.Macrotick
	// taskIdx is the 0-based executing task index, or -1 when the
	// processor is idle.
	taskIdx int
}

// NewAnalysis simulates the fixed-priority preemptive schedule of the set
// over maxOffset + 2 hyperperiods, verifies every periodic deadline, and
// builds the level-i idle tables.
func NewAnalysis(s *task.Set) (*Analysis, error) {
	if s == nil || len(s.Tasks) == 0 {
		return nil, ErrEmptySet
	}
	hyper, err := s.Hyperperiod()
	if err != nil {
		return nil, err
	}
	maxOff := s.MaxOffset()
	window := maxOff + 2*hyper

	ivals, err := simulate(s, window)
	if err != nil {
		return nil, err
	}

	a := &Analysis{
		set:          s,
		window:       window,
		hyper:        hyper,
		maxOff:       maxOff,
		levels:       make([]levelTable, len(s.Tasks)),
		idlePerHyper: make([]timebase.Macrotick, len(s.Tasks)),
	}
	for i := range s.Tasks {
		level := i + 1
		// len(ivals) bounds the number of idle runs at any level, so one
		// exact-capacity allocation per slice replaces repeated growth.
		lt := levelTable{
			starts: make([]timebase.Macrotick, 0, len(ivals)),
			ends:   make([]timebase.Macrotick, 0, len(ivals)),
			cum:    make([]timebase.Macrotick, 0, len(ivals)),
		}
		var cum timebase.Macrotick
		for _, iv := range ivals {
			if !idleForLevel(iv.taskIdx, level) {
				continue
			}
			n := len(lt.ends)
			if n > 0 && lt.ends[n-1] == iv.start {
				lt.ends[n-1] = iv.end // merge adjacent idle runs
			} else {
				lt.starts = append(lt.starts, iv.start)
				lt.ends = append(lt.ends, iv.end)
				lt.cum = append(lt.cum, cum)
			}
			cum += iv.end - iv.start
		}
		a.levels[i] = lt
		a.idlePerHyper[i] = a.idleAtRaw(level, window) - a.idleAtRaw(level, window-hyper)
	}
	return a, nil
}

// idleForLevel reports whether an interval executing taskIdx (or idling,
// taskIdx == -1) is idle for the 1-based level: no task of priority index
// < level is pending, which in a fixed-priority schedule holds exactly when
// the running task has 0-based index ≥ level or the processor idles.
func idleForLevel(taskIdx, level int) bool {
	return taskIdx == -1 || taskIdx >= level
}

// simulate runs the fixed-priority preemptive schedule of s over [0, window)
// and returns the execution intervals.  It fails with ErrUnschedulable on
// the first periodic deadline miss.
func simulate(s *task.Set, window timebase.Macrotick) ([]interval, error) {
	n := len(s.Tasks)
	remaining := make([]timebase.Macrotick, n) // unfinished released work
	nextRel := make([]timebase.Macrotick, n)
	released := make([]int64, n) // jobs released so far
	executed := make([]timebase.Macrotick, n)
	completed := make([]int64, n)
	for i, t := range s.Tasks {
		nextRel[i] = t.Phi
	}

	release := func(now timebase.Macrotick) {
		for i, t := range s.Tasks {
			for nextRel[i] <= now {
				remaining[i] += t.C
				released[i]++
				nextRel[i] += t.T
			}
		}
	}
	earliestRelease := func() timebase.Macrotick {
		e := window
		for i := range s.Tasks {
			if nextRel[i] < e {
				e = nextRel[i]
			}
		}
		return e
	}
	// checkDeadline verifies that each job completed no later than its
	// deadline once the task's executed time crosses a job boundary.
	checkCompletions := func(i int, now timebase.Macrotick) error {
		t := s.Tasks[i]
		for completed[i] < released[i] && executed[i] >= timebase.Macrotick(completed[i]+1)*t.C {
			completed[i]++
			if d := t.AbsDeadline(completed[i]); now > d {
				return fmt.Errorf("%w: task %q job %d finished at %d, deadline %d",
					ErrUnschedulable, t.Name, completed[i], now, d)
			}
		}
		return nil
	}

	ivals := make([]interval, 0, 1024)
	appendIval := func(start, end timebase.Macrotick, taskIdx int) {
		if end <= start {
			return
		}
		if n := len(ivals); n > 0 && ivals[n-1].end == start && ivals[n-1].taskIdx == taskIdx {
			ivals[n-1].end = end
			return
		}
		ivals = append(ivals, interval{start: start, end: end, taskIdx: taskIdx})
	}

	now := timebase.Macrotick(0)
	release(now)
	for now < window {
		// Highest-priority pending task.
		run := -1
		for i := 0; i < n; i++ {
			if remaining[i] > 0 {
				run = i
				break
			}
		}
		next := earliestRelease()
		if next <= now { // releases exactly at now already handled
			next = now + 1
		}
		if run == -1 {
			// Idle until the next release.
			appendIval(now, next, -1)
			now = next
			release(now)
			continue
		}
		// Run until completion of the current chunk or the next release.
		span := remaining[run]
		if next-now < span {
			span = next - now
		}
		appendIval(now, now+span, run)
		remaining[run] -= span
		executed[run] += span
		now += span
		if err := checkCompletions(run, now); err != nil {
			return nil, err
		}
		release(now)
	}
	// A deadline can also be missed by work still pending at the horizon;
	// the window covers two hyperperiods so any structural miss surfaces
	// as a late completion above.  Verify nothing overdue remains.
	for i, t := range s.Tasks {
		if completed[i] < released[i] {
			d := t.AbsDeadline(completed[i] + 1)
			if d < window {
				return nil, fmt.Errorf("%w: task %q job %d unfinished at horizon, deadline %d",
					ErrUnschedulable, t.Name, completed[i]+1, d)
			}
		}
	}
	return ivals, nil
}

// Levels returns the number of priority levels (= tasks).
func (a *Analysis) Levels() int { return len(a.set.Tasks) }

// Hyperperiod returns the task-set hyperperiod.
func (a *Analysis) Hyperperiod() timebase.Macrotick { return a.hyper }

// Window returns the simulated horizon.
func (a *Analysis) Window() timebase.Macrotick { return a.window }

// Set returns the analyzed task set.
func (a *Analysis) Set() *task.Set { return a.set }

// IdlePerHyperperiod returns the steady-state level idle time accrued per
// hyperperiod for the 1-based level.
func (a *Analysis) IdlePerHyperperiod(level int) (timebase.Macrotick, error) {
	if level < 1 || level > len(a.levels) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadLevel, level, len(a.levels))
	}
	return a.idlePerHyper[level-1], nil
}

// LevelIdle returns A_level(t): the cumulative level idle time in [0, t),
// extrapolated periodically beyond the simulated window.
func (a *Analysis) LevelIdle(level int, t timebase.Macrotick) (timebase.Macrotick, error) {
	if level < 1 || level > len(a.levels) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadLevel, level, len(a.levels))
	}
	return a.levelIdle(level, t), nil
}

// levelIdle is LevelIdle for a level already known to be in range.
func (a *Analysis) levelIdle(level int, t timebase.Macrotick) timebase.Macrotick {
	if t <= 0 {
		return 0
	}
	if t <= a.window {
		return a.idleAtRaw(level, t)
	}
	// Fold t into (window−hyper, window] and add whole hyperperiods.
	over := t - a.window
	m := over/a.hyper + 1
	folded := t - m*a.hyper
	return a.idleAtRaw(level, folded) + m*a.idlePerHyper[level-1]
}

// idleAtRaw evaluates the level table inside the simulated window.
func (a *Analysis) idleAtRaw(level int, t timebase.Macrotick) timebase.Macrotick {
	lt := &a.levels[level-1]
	// Find the last idle interval starting before t.
	k := sort.Search(len(lt.starts), func(i int) bool { return lt.starts[i] >= t })
	if k == 0 {
		return 0
	}
	k--
	if t >= lt.ends[k] {
		return lt.cum[k] + (lt.ends[k] - lt.starts[k])
	}
	return lt.cum[k] + (t - lt.starts[k])
}

// IdleInWindow returns the level idle time accrued in [t1, t2).
func (a *Analysis) IdleInWindow(level int, t1, t2 timebase.Macrotick) (timebase.Macrotick, error) {
	if t2 < t1 {
		return 0, fmt.Errorf("slack: inverted window [%d, %d)", t1, t2)
	}
	i2, err := a.LevelIdle(level, t2)
	if err != nil {
		return 0, err
	}
	i1, err := a.LevelIdle(level, t1)
	if err != nil {
		return 0, err
	}
	return i2 - i1, nil
}

// NextDeadline returns the earliest absolute deadline of the level's task
// (0-based index level−1) at or after t.
func (a *Analysis) NextDeadline(level int, t timebase.Macrotick) (timebase.Macrotick, error) {
	if level < 1 || level > len(a.levels) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadLevel, level, len(a.levels))
	}
	tk := a.set.Tasks[level-1]
	first := tk.AbsDeadline(1)
	if t <= first {
		return first, nil
	}
	k := (t - first + tk.T - 1) / tk.T
	return first + k*tk.T, nil
}

// LastDeadlineIn returns the latest absolute deadline of the level's task in
// the half-open interval (t1, t2], and ok=false when there is none.
func (a *Analysis) LastDeadlineIn(level int, t1, t2 timebase.Macrotick) (timebase.Macrotick, bool, error) {
	if level < 1 || level > len(a.levels) {
		return 0, false, fmt.Errorf("%w: %d of %d", ErrBadLevel, level, len(a.levels))
	}
	tk := a.set.Tasks[level-1]
	first := tk.AbsDeadline(1)
	if t2 < first {
		return 0, false, nil
	}
	k := (t2 - first) / tk.T
	d := first + k*tk.T
	if d <= t1 {
		return 0, false, nil
	}
	return d, true, nil
}

// TableEntry is one row of the paper's precomputed slack table: a job
// deadline of the level's task together with the level idle time available
// before it ("we further use a table to store and maintain the identified
// values", Section III-F).
type TableEntry struct {
	// Deadline is the absolute deadline d_{i,k} of the k-th job.
	Deadline timebase.Macrotick
	// Available is A_i(d_{i,k}), the level-i idle time before it.
	Available timebase.Macrotick
}

// SlackTable returns the slack table of the 1-based level for every job
// deadline up to the horizon.
func (a *Analysis) SlackTable(level int, horizon timebase.Macrotick) ([]TableEntry, error) {
	if level < 1 || level > len(a.levels) {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadLevel, level, len(a.levels))
	}
	tk := a.set.Tasks[level-1]
	var out []TableEntry
	for k := int64(1); ; k++ {
		d := tk.AbsDeadline(k)
		if d > horizon {
			break
		}
		avail, err := a.LevelIdle(level, d)
		if err != nil {
			return nil, err
		}
		out = append(out, TableEntry{Deadline: d, Available: avail})
	}
	return out, nil
}

package slack

import (
	"errors"
	"testing"

	"github.com/flexray-go/coefficient/internal/task"
	"github.com/flexray-go/coefficient/internal/timebase"
)

func newStealer(t *testing.T, tasks []task.Periodic) *Stealer {
	t.Helper()
	s, err := task.NewSet(tasks)
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	a, err := NewAnalysis(s)
	if err != nil {
		t.Fatalf("NewAnalysis: %v", err)
	}
	return NewStealer(a)
}

func twoTaskStealer(t *testing.T) *Stealer {
	t.Helper()
	return newStealer(t, []task.Periodic{
		{Name: "t1", C: 2, T: 5, D: 5},
		{Name: "t2", C: 3, T: 10, D: 10},
	})
}

func TestAvailableAtStart(t *testing.T) {
	st := twoTaskStealer(t)
	// S_1(0) = A_1(5) = 3; S_2(0) = A_2(10) = 3; min = 3.
	got, err := st.Available()
	if err != nil {
		t.Fatalf("Available: %v", err)
	}
	if got != 3 {
		t.Errorf("Available() = %d, want 3", got)
	}
}

// Drive the stealer through one hyperperiod of the hand-computed schedule
// with maximal stealing and verify the slack counters at each step.
func TestStealerScenario(t *testing.T) {
	st := twoTaskStealer(t)

	// Steal [0,3) at top priority.
	if err := st.RunAperiodic(3); err != nil {
		t.Fatalf("RunAperiodic: %v", err)
	}
	// τ1 job1 runs [3,5), τ1 job2 [5,7), τ2 [7,10).
	if err := st.RunPeriodic(0, 2); err != nil {
		t.Fatalf("RunPeriodic: %v", err)
	}
	if err := st.RunPeriodic(0, 2); err != nil {
		t.Fatalf("RunPeriodic: %v", err)
	}

	// Mid-τ2: at t=8, level 2 binds (τ2 must finish by 10): no slack.
	if err := st.RunPeriodic(1, 1); err != nil {
		t.Fatalf("RunPeriodic: %v", err)
	}
	if st.Now() != 8 {
		t.Fatalf("Now() = %d, want 8", st.Now())
	}
	got, err := st.Available()
	if err != nil {
		t.Fatalf("Available: %v", err)
	}
	if got != 0 {
		t.Errorf("Available() at t=8 = %d, want 0", got)
	}

	// Finish τ2 [8,10).  At t=10 the pattern repeats: slack 3 again.
	if err := st.RunPeriodic(1, 2); err != nil {
		t.Fatalf("RunPeriodic: %v", err)
	}
	got, err = st.Available()
	if err != nil {
		t.Fatalf("Available: %v", err)
	}
	if got != 3 {
		t.Errorf("Available() at t=10 = %d, want 3", got)
	}

	if c := st.Consumed(); c != 3 {
		t.Errorf("Consumed() = %d, want 3", c)
	}
	i1, err := st.Inactivity(1)
	if err != nil || i1 != 3 { // τ2 ran for 3 while τ1 had no work
		t.Errorf("Inactivity(1) = %d, %v; want 3", i1, err)
	}
	i2, err := st.Inactivity(2)
	if err != nil || i2 != 0 {
		t.Errorf("Inactivity(2) = %d, %v; want 0", i2, err)
	}
}

func TestIdleAccruesAllLevels(t *testing.T) {
	st := twoTaskStealer(t)
	// Declining to steal wastes the slack: idle [0,3) burns it.
	if err := st.Idle(3); err != nil {
		t.Fatalf("Idle: %v", err)
	}
	got, err := st.Available()
	if err != nil {
		t.Fatalf("Available: %v", err)
	}
	if got != 0 {
		t.Errorf("Available() after idling 3 = %d, want 0", got)
	}
}

func TestStealerRejectsNegativeDurations(t *testing.T) {
	st := twoTaskStealer(t)
	if err := st.RunPeriodic(0, -1); !errors.Is(err, ErrTimeTravel) {
		t.Errorf("RunPeriodic(-1) = %v", err)
	}
	if err := st.RunAperiodic(-1); !errors.Is(err, ErrTimeTravel) {
		t.Errorf("RunAperiodic(-1) = %v", err)
	}
	if err := st.RunAperiodicSoft(-1); !errors.Is(err, ErrTimeTravel) {
		t.Errorf("RunAperiodicSoft(-1) = %v", err)
	}
	if err := st.Idle(-1); !errors.Is(err, ErrTimeTravel) {
		t.Errorf("Idle(-1) = %v", err)
	}
	if err := st.RunPeriodic(5, 1); !errors.Is(err, ErrBadLevel) {
		t.Errorf("RunPeriodic(bad idx) = %v", err)
	}
}

func TestCapacityHandComputed(t *testing.T) {
	st := twoTaskStealer(t)
	tests := []struct {
		tb   timebase.Macrotick
		want timebase.Macrotick
	}{
		{0, 0}, {2, 2}, {3, 3}, {5, 3}, {7, 3}, {10, 3},
		{15, 6}, {20, 6},
	}
	for _, tt := range tests {
		got, err := st.Capacity(tt.tb)
		if err != nil {
			t.Fatalf("Capacity(%d): %v", tt.tb, err)
		}
		if got != tt.want {
			t.Errorf("Capacity(%d) = %d, want %d", tt.tb, got, tt.want)
		}
	}
	if _, err := st.Capacity(-1); !errors.Is(err, ErrTimeTravel) {
		t.Errorf("Capacity(-1) = %v", err)
	}
}

// Cross-check Capacity from time zero against a brute-force tick simulator
// that steals greedily whenever feasible.
func TestCapacityMatchesBruteForce(t *testing.T) {
	sets := [][]task.Periodic{
		{
			{Name: "a", C: 2, T: 5, D: 5},
			{Name: "b", C: 3, T: 10, D: 10},
		},
		{
			{Name: "a", C: 1, T: 4, D: 3},
			{Name: "b", C: 2, T: 6, D: 6},
			{Name: "c", C: 2, T: 12, D: 12},
		},
		{
			{Name: "a", C: 1, T: 3, Phi: 1, D: 3},
			{Name: "b", C: 2, T: 9, Phi: 2, D: 9},
		},
	}
	for si, tasks := range sets {
		s, err := task.NewSet(tasks)
		if err != nil {
			t.Fatalf("set %d: NewSet: %v", si, err)
		}
		a, err := NewAnalysis(s)
		if err != nil {
			t.Fatalf("set %d: NewAnalysis: %v", si, err)
		}
		h := a.Hyperperiod()
		for tb := timebase.Macrotick(0); tb <= 2*h; tb++ {
			st := NewStealer(a)
			got, err := st.Capacity(tb)
			if err != nil {
				t.Fatalf("Capacity(%d): %v", tb, err)
			}
			want := bruteForceCapacity(s, tb, a.Window()+tb)
			if got != want {
				t.Fatalf("set %d: Capacity(%d) = %d, brute force %d", si, tb, got, want)
			}
		}
	}
}

// bruteForceCapacity steals aperiodic ticks greedily: a tick is stolen iff
// doing so leaves the periodics-only continuation free of deadline misses up
// to the horizon.  Greedy earliest stealing is optimal for maximizing the
// total stolen by tb because the per-deadline constraints are cumulative
// prefix caps.
func bruteForceCapacity(s *task.Set, tb, horizon timebase.Macrotick) timebase.Macrotick {
	return bruteForceCapacityAfter(s, nil, tb, horizon)
}

// bruteForceCapacityAfter first replays a prefix of len(prefix) ticks —
// prefix[t] is the task index that executed in tick t, or −1 for a tick
// with no periodic execution (idle or aperiodic) — and then steals
// greedily as bruteForceCapacity does, counting only the ticks stolen in
// [len(prefix), tb).
func bruteForceCapacityAfter(s *task.Set, prefix []int, tb, horizon timebase.Macrotick) timebase.Macrotick {
	type job struct {
		deadline  timebase.Macrotick
		remaining timebase.Macrotick
	}
	n := len(s.Tasks)
	pending := make([][]job, n)
	nextRel := make([]timebase.Macrotick, n)
	for i, tk := range s.Tasks {
		nextRel[i] = tk.Phi
	}
	release := func(pend [][]job, rel []timebase.Macrotick, now timebase.Macrotick) {
		for i, tk := range s.Tasks {
			for rel[i] <= now {
				pend[i] = append(pend[i], job{deadline: rel[i] + tk.D, remaining: tk.C})
				rel[i] += tk.T
			}
		}
	}
	clone := func() ([][]job, []timebase.Macrotick) {
		p2 := make([][]job, n)
		for i := range pending {
			p2[i] = append([]job(nil), pending[i]...)
		}
		return p2, append([]timebase.Macrotick(nil), nextRel...)
	}
	// feasible reports whether running periodics only from `from` meets
	// every deadline up to the horizon.
	feasible := func(pend [][]job, rel []timebase.Macrotick, from timebase.Macrotick) bool {
		for now := from; now < horizon; now++ {
			release(pend, rel, now)
			run := -1
			for i := 0; i < n; i++ {
				if len(pend[i]) > 0 {
					run = i
					break
				}
			}
			for i := range pend {
				if len(pend[i]) > 0 && pend[i][0].deadline <= now {
					return false
				}
			}
			if run >= 0 {
				pend[run][0].remaining--
				if pend[run][0].remaining == 0 {
					if pend[run][0].deadline < now+1 {
						return false
					}
					pend[run] = pend[run][1:]
				}
			}
		}
		for i := range pend {
			if len(pend[i]) > 0 && pend[i][0].deadline < horizon {
				return false
			}
		}
		return true
	}

	var stolen timebase.Macrotick
	for now := timebase.Macrotick(0); now < tb; now++ {
		release(pending, nextRel, now)
		if int(now) < len(prefix) {
			if run := prefix[now]; run >= 0 {
				pending[run][0].remaining--
				if pending[run][0].remaining == 0 {
					pending[run] = pending[run][1:]
				}
			}
			continue
		}
		// Try stealing this tick.
		p2, r2 := clone()
		if feasible(p2, r2, now+1) {
			stolen++
			continue
		}
		run := -1
		for i := 0; i < n; i++ {
			if len(pending[i]) > 0 {
				run = i
				break
			}
		}
		if run >= 0 {
			pending[run][0].remaining--
			if pending[run][0].remaining == 0 {
				pending[run] = pending[run][1:]
			}
		}
	}
	return stolen
}

func TestAdmitHardAcceptsFittingJob(t *testing.T) {
	st := twoTaskStealer(t)
	// Capacity(10) = 3; a job of 3 by 10 fits exactly.
	j := task.Aperiodic{Name: "retx", Arrival: 0, P: 3, D: 10}
	if err := st.AdmitHard(j); err != nil {
		t.Fatalf("AdmitHard: %v", err)
	}
	if st.GuaranteedCount() != 1 || st.GuaranteedBacklog() != 3 {
		t.Errorf("guaranteed count/backlog = %d/%d, want 1/3",
			st.GuaranteedCount(), st.GuaranteedBacklog())
	}
}

func TestAdmitHardRejectsOverload(t *testing.T) {
	st := twoTaskStealer(t)
	if err := st.AdmitHard(task.Aperiodic{Name: "too-big", Arrival: 0, P: 4, D: 10}); !errors.Is(err, ErrRejected) {
		t.Fatalf("AdmitHard(P=4, D=10) = %v, want ErrRejected", err)
	}
	// Rejection leaves no residue.
	if st.GuaranteedCount() != 0 {
		t.Errorf("guaranteed count after rejection = %d, want 0", st.GuaranteedCount())
	}
	// A fitting job is still accepted afterwards.
	if err := st.AdmitHard(task.Aperiodic{Name: "ok", Arrival: 0, P: 2, D: 10}); err != nil {
		t.Fatalf("AdmitHard(ok): %v", err)
	}
}

func TestAdmitHardAccountsForGuaranteed(t *testing.T) {
	st := twoTaskStealer(t)
	if err := st.AdmitHard(task.Aperiodic{Name: "first", Arrival: 0, P: 2, D: 10}); err != nil {
		t.Fatalf("AdmitHard(first): %v", err)
	}
	// Only 1 unit of capacity to 10 remains.
	if err := st.AdmitHard(task.Aperiodic{Name: "second", Arrival: 0, P: 2, D: 10}); !errors.Is(err, ErrRejected) {
		t.Fatalf("AdmitHard(second) = %v, want ErrRejected", err)
	}
	if err := st.AdmitHard(task.Aperiodic{Name: "third", Arrival: 0, P: 1, D: 10}); err != nil {
		t.Fatalf("AdmitHard(third): %v", err)
	}
}

func TestAdmitHardEDFInsertProtectsEarlierDeadline(t *testing.T) {
	st := twoTaskStealer(t)
	// Fill capacity to 15 (= 6) with a late job, then try to cut in line
	// with an early one that would displace it.
	if err := st.AdmitHard(task.Aperiodic{Name: "late", Arrival: 0, P: 5, D: 15}); err != nil {
		t.Fatalf("AdmitHard(late): %v", err)
	}
	// Early job of 3 by 10: prefix due = 3 ≤ Cap(10)=3, but late job's
	// prefix due = 8 > Cap(15)=6 → reject.
	if err := st.AdmitHard(task.Aperiodic{Name: "early", Arrival: 0, P: 3, D: 10}); !errors.Is(err, ErrRejected) {
		t.Fatalf("AdmitHard(early) = %v, want ErrRejected", err)
	}
	// A 1-unit early job fits: 1 ≤ 3 and 6 ≤ 6.
	if err := st.AdmitHard(task.Aperiodic{Name: "tiny", Arrival: 0, P: 1, D: 10}); err != nil {
		t.Fatalf("AdmitHard(tiny): %v", err)
	}
}

func TestAdmitHardArgErrors(t *testing.T) {
	st := twoTaskStealer(t)
	if err := st.AdmitHard(task.Aperiodic{Name: "soft", Arrival: 0, P: 1, D: task.NoDeadline}); err == nil {
		t.Error("soft job accepted by AdmitHard")
	}
	if err := st.AdmitHard(task.Aperiodic{Name: "future", Arrival: 5, P: 1, D: 10}); !errors.Is(err, ErrTimeTravel) {
		t.Errorf("future arrival = %v, want ErrTimeTravel", err)
	}
	if err := st.AdmitHard(task.Aperiodic{Name: "invalid", Arrival: 0, P: 0, D: 10}); err == nil {
		t.Error("invalid job accepted")
	}
	if err := st.Idle(5); err != nil {
		t.Fatalf("Idle: %v", err)
	}
	if err := st.AdmitHard(task.Aperiodic{Name: "expired", Arrival: 0, P: 1, D: 4}); !errors.Is(err, ErrRejected) {
		t.Errorf("expired deadline = %v, want ErrRejected", err)
	}
}

func TestRunAperiodicDrainsGuaranteedEDF(t *testing.T) {
	st := twoTaskStealer(t)
	if err := st.AdmitHard(task.Aperiodic{Name: "a", Arrival: 0, P: 2, D: 10}); err != nil {
		t.Fatalf("AdmitHard(a): %v", err)
	}
	if err := st.AdmitHard(task.Aperiodic{Name: "b", Arrival: 0, P: 3, D: 15}); err != nil {
		t.Fatalf("AdmitHard(b): %v", err)
	}
	if err := st.RunAperiodic(2); err != nil {
		t.Fatalf("RunAperiodic: %v", err)
	}
	if st.GuaranteedCount() != 1 || st.GuaranteedBacklog() != 3 {
		t.Errorf("after draining 2: count/backlog = %d/%d, want 1/3",
			st.GuaranteedCount(), st.GuaranteedBacklog())
	}
	if err := st.RunAperiodic(3); err != nil {
		t.Fatalf("RunAperiodic: %v", err)
	}
	if st.GuaranteedCount() != 0 {
		t.Errorf("backlog not drained: %d jobs left", st.GuaranteedCount())
	}
}

func TestAvailableSoftSubtractsGuaranteed(t *testing.T) {
	st := twoTaskStealer(t)
	if err := st.AdmitHard(task.Aperiodic{Name: "hard", Arrival: 0, P: 2, D: 10}); err != nil {
		t.Fatalf("AdmitHard: %v", err)
	}
	avail, err := st.Available()
	if err != nil {
		t.Fatalf("Available: %v", err)
	}
	soft, err := st.AvailableSoft()
	if err != nil {
		t.Fatalf("AvailableSoft: %v", err)
	}
	if avail != 3 || soft != 1 {
		t.Errorf("Available/AvailableSoft = %d/%d, want 3/1", avail, soft)
	}
	// Soft service must not drain the hard queue.
	if err := st.RunAperiodicSoft(1); err != nil {
		t.Fatalf("RunAperiodicSoft: %v", err)
	}
	if st.GuaranteedBacklog() != 2 {
		t.Errorf("soft service drained hard backlog: %d", st.GuaranteedBacklog())
	}
}

// Admitted jobs must actually be servable: steal exactly the guaranteed
// work, run the periodic schedule work-conservingly, and confirm every
// periodic deadline and the aperiodic deadline hold in a tick simulation.
func TestAdmittedJobsAreServable(t *testing.T) {
	tasks := []task.Periodic{
		{Name: "a", C: 1, T: 4, D: 3},
		{Name: "b", C: 2, T: 6, D: 6},
		{Name: "c", C: 2, T: 12, D: 12},
	}
	s, err := task.NewSet(tasks)
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	a, err := NewAnalysis(s)
	if err != nil {
		t.Fatalf("NewAnalysis: %v", err)
	}
	st := NewStealer(a)
	j := task.Aperiodic{Name: "retx", Arrival: 0, P: 2, D: 9}
	if err := st.AdmitHard(j); err != nil {
		t.Fatalf("AdmitHard: %v", err)
	}
	// Brute force: at least P units must be stealable by D.
	if got := bruteForceCapacity(s, j.D, a.Window()+j.D); got < j.P {
		t.Fatalf("admitted job unservable: brute-force capacity to %d is %d < %d",
			j.D, got, j.P)
	}
}

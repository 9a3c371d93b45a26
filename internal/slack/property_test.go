package slack

import (
	"testing"
	"testing/quick"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/task"
	"github.com/flexray-go/coefficient/internal/timebase"
)

// randomTaskSet draws a small random periodic task set (2–3 tasks,
// periods 3–12) and its analysis; ok is false for an overloaded or
// unschedulable draw, which callers skip.
func randomTaskSet(rng *fault.RNG) (*task.Set, *Analysis, []task.Periodic, bool) {
	periods := []timebase.Macrotick{3, 4, 5, 6, 8, 10, 12}
	n := 2 + rng.Intn(2)
	tasks := make([]task.Periodic, 0, n)
	for i := 0; i < n; i++ {
		p := periods[rng.Intn(len(periods))]
		c := timebase.Macrotick(1 + rng.Intn(2))
		d := c + timebase.Macrotick(rng.Intn(int(p-c)+1))
		phi := timebase.Macrotick(rng.Intn(int(p)))
		tasks = append(tasks, task.Periodic{Name: "t", C: c, T: p, Phi: phi, D: d})
	}
	s, err := task.NewSet(tasks)
	if err != nil {
		return nil, nil, nil, false
	}
	a, err := NewAnalysis(s)
	if err != nil {
		return nil, nil, nil, false
	}
	return s, a, tasks, true
}

// Property: for randomized small task sets, the event-driven Capacity
// matches the tick-level brute force at every horizon up to two
// hyperperiods.
func TestCapacityMatchesBruteForceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("slow brute-force cross-check")
	}
	rng := fault.NewRNG(20140610)
	for trial := 0; trial < 40; trial++ {
		s, a, tasks, ok := randomTaskSet(rng)
		if !ok {
			continue
		}
		h := a.Hyperperiod()
		if h > 150 {
			continue // keep the brute force cheap
		}
		for tb := timebase.Macrotick(0); tb <= 2*h; tb += 1 + timebase.Macrotick(rng.Intn(3)) {
			st := NewStealer(a)
			got, err := st.Capacity(tb)
			if err != nil {
				t.Fatalf("trial %d: Capacity(%d): %v", trial, tb, err)
			}
			want := bruteForceCapacity(s, tb, a.Window()+tb)
			if got != want {
				t.Fatalf("trial %d (%+v): Capacity(%d) = %d, brute force %d",
					trial, tasks, tb, got, want)
			}
		}
	}
}

// Property: after a prefix that idles whenever the slack allows it (and
// otherwise follows the fixed-priority schedule), Capacity still matches
// the tick-level brute force replaying the same prefix.  Idle is the
// operation the incremental stealer turned into a shared offset, so the
// projection must read the per-level inactivity back exactly.
func TestCapacityAfterIdlePrefixMatchesBruteForceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("slow brute-force cross-check")
	}
	rng := fault.NewRNG(20260118)
	checked := 0
	for trial := 0; trial < 40; trial++ {
		s, a, tasks, ok := randomTaskSet(rng)
		if !ok {
			continue
		}
		h := a.Hyperperiod()
		if h > 150 {
			continue // keep the brute force cheap
		}
		st := NewStealer(a)
		plen := timebase.Macrotick(1 + rng.Intn(int(2*h)))
		prefix := make([]int, 0, plen)
		for now := timebase.Macrotick(0); now < plen; now++ {
			run := -1
			for i := range tasks {
				if p, err := st.Pending(i); err == nil && p > 0 {
					run = i
					break
				}
			}
			avail, err := st.Available()
			if err != nil {
				t.Fatalf("trial %d: Available: %v", trial, err)
			}
			if run >= 0 && (avail == 0 || rng.Intn(4) == 0) {
				if err := st.RunPeriodic(run, 1); err != nil {
					t.Fatalf("trial %d: RunPeriodic: %v", trial, err)
				}
				prefix = append(prefix, run)
				continue
			}
			if err := st.Idle(1); err != nil {
				t.Fatalf("trial %d: Idle: %v", trial, err)
			}
			prefix = append(prefix, -1)
		}
		for tb := plen; tb <= plen+2*h; tb += 1 + timebase.Macrotick(rng.Intn(3)) {
			got, err := st.Capacity(tb)
			if err != nil {
				t.Fatalf("trial %d: Capacity(%d): %v", trial, tb, err)
			}
			want := bruteForceCapacityAfter(s, prefix, tb, a.Window()+tb)
			if got != want {
				t.Fatalf("trial %d (%+v, prefix %v): Capacity(%d) = %d, brute force %d",
					trial, tasks, prefix, tb, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no task set was drawn")
	}
}

// Property: the incrementally kept slack keys agree with a direct
// evaluation of the paper's runtime slack after every operation of a
// random sequence — S(t) = max(0, min_i [A_i(d_i) − C(t) − I_i(t)]) with
// d_i the deadline of task i's next uncompleted job.
func TestIncrementalAvailableMatchesDirectProperty(t *testing.T) {
	rng := fault.NewRNG(20140611)
	checked := 0
	for trial := 0; trial < 60; trial++ {
		_, a, tasks, ok := randomTaskSet(rng)
		if !ok {
			continue
		}
		st := NewStealer(a)
		executed := make([]timebase.Macrotick, len(tasks))
		for op := 0; op < 400; op++ {
			var err error
			switch rng.Intn(9) {
			case 0, 1, 2: // periodic execution within released work
				i := rng.Intn(len(tasks))
				var pending timebase.Macrotick
				if pending, err = st.Pending(i); err == nil && pending > 0 {
					dt := timebase.Macrotick(1 + rng.Intn(int(pending)))
					err = st.RunPeriodic(i, dt)
					executed[i] += dt
				}
			case 3:
				err = st.RunAperiodic(timebase.Macrotick(1 + rng.Intn(3)))
			case 4:
				err = st.RunAperiodicSoft(timebase.Macrotick(1 + rng.Intn(3)))
			case 5, 6, 7:
				err = st.Idle(timebase.Macrotick(1 + rng.Intn(4)))
			default:
				if rng.Intn(10) == 0 {
					st.Reset()
					for i := range executed {
						executed[i] = 0
					}
				}
			}
			if err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
			got, err := st.Available()
			if err != nil {
				t.Fatalf("trial %d op %d: Available: %v", trial, op, err)
			}
			if want := directAvailable(t, a, st, executed); got != want {
				t.Fatalf("trial %d op %d (%+v, now %d): Available = %d, direct %d",
					trial, op, tasks, st.Now(), got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no task set was drawn")
	}
}

// directAvailable evaluates max(0, min_i LevelIdle(i, AbsDeadline(
// executed_i/C_i + 1)) − Consumed() − Inactivity(i)) from scratch.
func directAvailable(t *testing.T, a *Analysis, st *Stealer, executed []timebase.Macrotick) timebase.Macrotick {
	t.Helper()
	var least timebase.Macrotick
	for level := 1; level <= a.Levels(); level++ {
		tk := a.Set().Tasks[level-1]
		idle, err := a.LevelIdle(level, tk.AbsDeadline(int64(executed[level-1]/tk.C)+1))
		if err != nil {
			t.Fatalf("LevelIdle(%d): %v", level, err)
		}
		inact, err := st.Inactivity(level)
		if err != nil {
			t.Fatalf("Inactivity(%d): %v", level, err)
		}
		if s := idle - st.Consumed() - inact; level == 1 || s < least {
			least = s
		}
	}
	if least < 0 {
		return 0
	}
	return least
}

// Property: Capacity is monotone in the horizon and never exceeds the wall
// clock.
func TestCapacityMonotoneProperty(t *testing.T) {
	st := twoTaskStealer(t)
	f := func(raw1, raw2 uint16) bool {
		t1 := timebase.Macrotick(raw1 % 200)
		t2 := timebase.Macrotick(raw2 % 200)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		c1, err1 := st.Capacity(t1)
		c2, err2 := st.Capacity(t2)
		if err1 != nil || err2 != nil {
			return false
		}
		return c1 <= c2 && c1 <= t1 && c2 <= t2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: admitting a set of hard jobs and then actually serving them via
// the greedy steal schedule never exhausts more than the capacity — i.e.
// the sum of admitted work by any admitted deadline is within Capacity.
func TestAdmissionWithinCapacityProperty(t *testing.T) {
	rng := fault.NewRNG(7)
	for trial := 0; trial < 50; trial++ {
		st := newStealer(t, []task.Periodic{
			{Name: "t1", C: 2, T: 5, D: 5},
			{Name: "t2", C: 3, T: 10, D: 10},
		})
		type admitted struct {
			d timebase.Macrotick
			p timebase.Macrotick
		}
		var adm []admitted
		for i := 0; i < 8; i++ {
			j := task.Aperiodic{
				Name:    "j",
				Arrival: 0,
				P:       timebase.Macrotick(1 + rng.Intn(4)),
				D:       timebase.Macrotick(5 + rng.Intn(30)),
			}
			if err := st.AdmitHard(j); err == nil {
				adm = append(adm, admitted{d: j.D, p: j.P})
			}
		}
		// Check the invariant for every admitted deadline.
		for _, a := range adm {
			var due timebase.Macrotick
			for _, b := range adm {
				if b.d <= a.d {
					due += b.p
				}
			}
			capacity, err := st.Capacity(a.d)
			if err != nil {
				t.Fatalf("Capacity: %v", err)
			}
			if due > capacity {
				t.Fatalf("trial %d: %d units due by %d exceed capacity %d",
					trial, due, a.d, capacity)
			}
		}
	}
}

// Property: the immediately available slack never exceeds the capacity to
// any future horizon at least that far out (Available is what can be used
// right now; Capacity can only add to it).
func TestAvailableWithinCapacityProperty(t *testing.T) {
	st := twoTaskStealer(t)
	avail, err := st.Available()
	if err != nil {
		t.Fatalf("Available: %v", err)
	}
	for _, tb := range []timebase.Macrotick{avail, avail + 1, 10, 20, 50, 100} {
		if tb < avail {
			continue
		}
		capacity, err := st.Capacity(tb)
		if err != nil {
			t.Fatalf("Capacity(%d): %v", tb, err)
		}
		if capacity < avail && tb >= avail {
			t.Fatalf("Capacity(%d) = %d below Available %d", tb, capacity, avail)
		}
	}
}

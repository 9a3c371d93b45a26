package main

import (
	"time"
)

// Timed-phase shape of fig5-mc.  Set-up is re-measured setupsPerWindow
// times at the start of each of the timed phase's windows, so its
// samples spread over the whole run; the operations in between are
// timed one by one.
const (
	windows         = 5
	setupsPerWindow = 2
)

// windowedRun times setup setupsPerWindow times at the start of each
// window and then op back to back, each run of op preceded by a run of
// suite, until the window's share of seconds is over (at least once per
// window).  It returns every op, suite and setup time.
func windowedRun(seconds int, setup, op func(), suite func() time.Duration) (ops, suites, setups []time.Duration) {
	window := time.Duration(seconds) * time.Second / windows
	for w := 0; w < windows; w++ {
		for i := 0; i < setupsPerWindow; i++ {
			t0 := time.Now()
			setup()
			setups = append(setups, time.Since(t0))
		}
		end := time.Now().Add(window)
		for first := true; first || time.Now().Before(end); first = false {
			suites = append(suites, suite())
			t0 := time.Now()
			op()
			ops = append(ops, time.Since(t0))
		}
	}
	return ops, suites, setups
}

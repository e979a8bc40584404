package main

import "time"

// clock is the open-loop generator's view of time, injectable so the
// schedule and lateness accounting can be tested without sleeping.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// schedule is a fixed-rate arrival schedule: request i is due at
// start + i·interval, whatever happened to the requests before it.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// runOpenLoop fires every request due inside the window, never earlier
// than its due time and without waiting for answers. fire must not
// block. It returns the number of requests fired and the generator's
// largest lateness (actual fire time minus due time); latency is timed
// from the due time by the caller, so a stalled generator shows up as
// latency instead of being hidden.
func runOpenLoop(clk clock, sch schedule, window time.Duration, fire func(i int, due time.Time)) (int, time.Duration) {
	var maxLate time.Duration
	i := 0
	for ; ; i++ {
		due := sch.due(i)
		if due.Sub(sch.start) >= window {
			break
		}
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		if late := clk.Now().Sub(due); late > maxLate {
			maxLate = late
		}
		fire(i, due)
	}
	// Offered load covers the schedule's whole span: the window ends one
	// interval after the last request, not at its send.
	if wait := sch.due(i).Sub(clk.Now()); wait > 0 {
		clk.Sleep(wait)
	}
	return i, maxLate
}

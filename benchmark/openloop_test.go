package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on; stall adds extra time to the
// next sleep, as a descheduled generator would experience.
type fakeClock struct {
	now   time.Time
	stall map[int]time.Duration // sleep call index → extra delay
	calls int
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) Sleep(d time.Duration) {
	c.now = c.now.Add(d + c.stall[c.calls])
	c.calls++
}

func TestOpenLoopScheduleIsFixed(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	sch := schedule{start: start, interval: 25 * time.Millisecond}
	var dues []time.Time
	n, late := runOpenLoop(clk, sch, time.Second, func(i int, due time.Time) {
		if i != len(dues) {
			t.Fatalf("request %d fired out of order", i)
		}
		dues = append(dues, due)
	})
	if n != 40 || len(dues) != 40 {
		t.Fatalf("fired %d requests in a 1 s window at 40/s, want 40", n)
	}
	if late != 0 {
		t.Errorf("max lateness %v on an undisturbed clock, want 0", late)
	}
	for i, d := range dues {
		if want := start.Add(time.Duration(i) * 25 * time.Millisecond); !d.Equal(want) {
			t.Errorf("request %d due %v, want %v", i, d, want)
		}
	}
}

func TestOpenLoopLatenessAccounting(t *testing.T) {
	start := time.Unix(1000, 0)
	// The generator oversleeps by 60 ms before request 1. Requests 1, 2
	// and 3 (due at 25, 50, 75 ms) are then all overdue.
	clk := &fakeClock{now: start, stall: map[int]time.Duration{0: 60 * time.Millisecond}}
	sch := schedule{start: start, interval: 25 * time.Millisecond}
	type shot struct{ due, at time.Time }
	var shots []shot
	n, late := runOpenLoop(clk, sch, 200*time.Millisecond, func(i int, due time.Time) {
		shots = append(shots, shot{due, clk.Now()})
	})
	if n != 8 {
		t.Fatalf("fired %d requests, want 8: a stall must not drop scheduled requests", n)
	}
	if late != 60*time.Millisecond {
		t.Errorf("max lateness %v, want 60ms", late)
	}
	// The due times stay on the grid, so latency timed from them charges
	// the stall to the requests it delayed.
	wantLate := []time.Duration{0, 60, 35, 10, 0, 0, 0, 0}
	for i, s := range shots {
		if got := s.at.Sub(s.due); got != wantLate[i]*time.Millisecond {
			t.Errorf("request %d fired %v after its due time, want %v", i, got, wantLate[i]*time.Millisecond)
		}
	}
	// The generator never fires early.
	for i, s := range shots {
		if s.at.Before(s.due) {
			t.Errorf("request %d fired before it was due", i)
		}
	}
}

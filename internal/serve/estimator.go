package serve

import (
	"sync/atomic"
	"time"
)

// runEstimator keeps the server's run-time estimates, each an EWMA
// (α = 1/8) of engine wall time: one over every engine run, which
// drives Retry-After, and one per topology name — the scenario
// dimension that dominates job cost — over successful exact runs, which
// the rung choice compares a job's remaining deadline against.
type runEstimator struct {
	all    atomic.Int64
	byTopo wireKeyed[*atomic.Int64]
}

// observe folds one engine run's wall time into the overall estimate
// and, when it was a successful exact run, into its topology's.
func (e *runEstimator) observe(topoName string, d time.Duration, exactOK bool) {
	ewma(&e.all, d)
	if exactOK {
		ewma(e.byTopo.get(topoName, func(string) *atomic.Int64 { return new(atomic.Int64) }), d)
	}
}

// ewma folds d into cell; the first observation seeds it.
func ewma(cell *atomic.Int64, d time.Duration) {
	for {
		old := cell.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/8
		}
		if cell.CompareAndSwap(old, next) {
			return
		}
	}
}

// average is the expected wall time of an engine run, 0 before the
// first one.
func (e *runEstimator) average() time.Duration { return time.Duration(e.all.Load()) }

// estimate is the expected exact run time for a topology: its own
// history when it has one, the overall average otherwise, 0 when no
// engine run has finished yet.
func (e *runEstimator) estimate(topoName string) time.Duration {
	if cell, ok := e.byTopo.lookup(topoName); ok {
		return time.Duration(cell.Load())
	}
	return e.average()
}

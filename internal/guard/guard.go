// Package guard is the engine's robustness layer: structured errors for
// shard-isolated panics, cancellation/deadline wrapping for RunContext,
// and a divergence watchdog over IRSA's per-iteration delta sequence.
// Learned simulators can destabilize over long inference horizons; guard
// turns the three silent failure modes of a long-running estimator —
// crashing goroutines, runaway fixed-point iterations, and NaN poisoning
// — into diagnosable, recoverable errors.
package guard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
)

// Sentinel errors for context-terminated runs. RunContext wraps the
// underlying context error so both errors.Is(err, guard.ErrCanceled) and
// errors.Is(err, context.Canceled) hold.
var (
	// ErrCanceled marks a run stopped by context cancellation.
	ErrCanceled = errors.New("guard: run canceled")
	// ErrDeadline marks a run stopped by a context deadline.
	ErrDeadline = errors.New("guard: run deadline exceeded")
)

// FromContext maps a context error to its guard sentinel, preserving the
// original error in the chain. It returns nil for a nil error.
func FromContext(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return errors.Join(ErrDeadline, err)
	}
	return errors.Join(ErrCanceled, err)
}

// ErrBreakerOpen marks work refused (or rerouted to a degraded path)
// because a circuit breaker guarding the failing resource is open.
// Serving layers wrap it in a *BreakerError carrying the breaker's
// identity and the failure that tripped it.
var ErrBreakerOpen = errors.New("guard: circuit breaker open")

// BreakerError reports an open circuit breaker: which guarded path is
// broken, how many consecutive failures tripped it, and the last
// failure observed. It matches both errors.Is(err, ErrBreakerOpen) and,
// through LastErr, whatever chain the tripping failure carried (e.g. a
// *ShardError), so callers can tell a breaker-shed request from the
// fault that opened the breaker in the first place.
type BreakerError struct {
	Path     string // identity of the guarded resource (e.g. model path)
	Failures int    // consecutive failures that opened the breaker
	LastErr  error  // the failure that tripped the breaker (may be nil)
}

// Error implements error.
func (e *BreakerError) Error() string {
	if e.LastErr == nil {
		return fmt.Sprintf("guard: breaker open for %q after %d consecutive failures", e.Path, e.Failures)
	}
	return fmt.Sprintf("guard: breaker open for %q after %d consecutive failures (last: %v)",
		e.Path, e.Failures, e.LastErr)
}

// Unwrap exposes both the ErrBreakerOpen sentinel and the tripping
// failure's chain to errors.Is/As.
func (e *BreakerError) Unwrap() []error {
	if e.LastErr == nil {
		return []error{ErrBreakerOpen}
	}
	return []error{ErrBreakerOpen, e.LastErr}
}

// ShardError is a panic recovered inside one inference shard: the shard
// and device that crashed, the IRSA iteration, the panic value, and the
// goroutine stack at the point of the panic. One crashing device model
// surfaces as a ShardError instead of killing the process.
type ShardError struct {
	Shard  int    // shard index of the crashed worker
	Device int    // topo device ID being inferred
	Iter   int    // IRSA iteration (0-based)
	Panic  any    // recovered panic value
	Stack  []byte // stack trace captured at recovery
}

// Error implements error.
func (e *ShardError) Error() string {
	return fmt.Sprintf("guard: shard %d: panic inferring device %d at iteration %d: %v",
		e.Shard, e.Device, e.Iter, e.Panic)
}

// Unwrap exposes a recovered panic value that is itself an error (e.g.
// a *WorkerError re-panicked by RethrowWorkers) to errors.Is/As, so the
// full fan-out → worker → shard failure chain stays inspectable.
func (e *ShardError) Unwrap() error {
	if err, ok := e.Panic.(error); ok {
		return err
	}
	return nil
}

// Recovered builds a ShardError from a recover() value, capturing the
// current stack. It returns nil when r is nil so it can be called
// unconditionally from a deferred recovery handler.
func Recovered(shard, device, iter int, r any) *ShardError {
	if r == nil {
		return nil
	}
	return &ShardError{Shard: shard, Device: device, Iter: iter, Panic: r, Stack: debug.Stack()}
}

// DivergenceError reports a non-converging or numerically poisoned IRSA
// run: the iteration at which the watchdog tripped, why, and the full
// per-iteration delta trace for diagnosis.
type DivergenceError struct {
	Iter   int       // iteration at which the watchdog tripped (0-based)
	Reason string    // what tripped: non-finite delta or sustained growth
	Trace  []float64 // per-iteration propagate deltas, oldest first
}

// Error implements error, showing the tail of the delta trace.
func (e *DivergenceError) Error() string {
	tail := e.Trace
	if len(tail) > 8 {
		tail = tail[len(tail)-8:]
	}
	return fmt.Sprintf("guard: divergence at iteration %d: %s (delta tail %v)", e.Iter, e.Reason, tail)
}

// DefaultPatience is the number of consecutive delta increases tolerated
// before the watchdog declares divergence. A contractive (damped) IRSA
// iteration may bounce for an iteration or two; eight monotonic growth
// steps cannot come from a converging fixed point.
const DefaultPatience = 8

// Watchdog observes the per-iteration convergence deltas of a
// fixed-point run and aborts it when the sequence stops contracting:
// immediately on NaN/±Inf, or after DefaultPatience consecutive strict
// increases. The zero value is ready to use.
type Watchdog struct {
	trace  []float64
	growth int
}

// Observe records one iteration's delta and returns a *DivergenceError
// once the sequence is judged divergent, nil otherwise.
func (w *Watchdog) Observe(iter int, delta float64) error {
	w.trace = append(w.trace, delta)
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return &DivergenceError{Iter: iter,
			Reason: fmt.Sprintf("non-finite convergence delta %v", delta),
			Trace:  w.Trace()}
	}
	n := len(w.trace)
	if n >= 2 && w.trace[n-1] > w.trace[n-2] {
		w.growth++
	} else {
		w.growth = 0
	}
	if w.growth >= DefaultPatience {
		return &DivergenceError{Iter: iter,
			Reason: fmt.Sprintf("convergence delta grew for %d consecutive iterations", w.growth),
			Trace:  w.Trace()}
	}
	return nil
}

// Trace returns a copy of the observed delta sequence, oldest first.
func (w *Watchdog) Trace() []float64 {
	return append([]float64(nil), w.trace...)
}

// WorkerError is a panic recovered on a data-parallel worker goroutine
// (training replicas, batched PTM inference fan-out). recover only
// intercepts panics on the goroutine that panicked, so a worker panic
// would bypass the IRSA shard guard and kill the process; fan-out
// helpers instead recover each worker into a WorkerError and re-panic
// it on the calling goroutine (RethrowWorkers), where the caller's own
// isolation — e.g. the shard recovery that yields a ShardError — can
// handle it.
type WorkerError struct {
	Worker int    // index of the crashed worker
	Panic  any    // recovered panic value
	Stack  []byte // worker stack captured at recovery
}

// Error implements error.
func (e *WorkerError) Error() string {
	return fmt.Sprintf("guard: worker %d panicked: %v", e.Worker, e.Panic)
}

// Unwrap exposes a recovered panic value that is itself an error to
// errors.Is/As (mirroring ShardError.Unwrap).
func (e *WorkerError) Unwrap() error {
	if err, ok := e.Panic.(error); ok {
		return err
	}
	return nil
}

// RecoveredWorker builds a WorkerError from a recover() value,
// capturing the worker's stack. It returns nil when r is nil so it can
// be called unconditionally from a deferred recovery handler.
func RecoveredWorker(worker int, r any) *WorkerError {
	if r == nil {
		return nil
	}
	return &WorkerError{Worker: worker, Panic: r, Stack: debug.Stack()}
}

// RethrowWorkers re-panics the first recorded worker panic on the
// calling goroutine (no-op when no worker crashed). Call it after the
// fan-out's WaitGroup drains, so the panic unwinds a goroutine whose
// callers can recover it.
func RethrowWorkers(workerErrs []*WorkerError) {
	for _, we := range workerErrs {
		if we != nil {
			panic(we)
		}
	}
}

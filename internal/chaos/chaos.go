// Package chaos is a deterministic fault injector for the serving
// stack: it wraps core.DeviceModel implementations and the serve job
// runner to inject shard panics, NaN outputs, latency, and canceled
// contexts at configurable rates, all drawn from an explicitly seeded
// internal/rng stream. Chaos tests drive the whole server end-to-end
// under these faults and assert that the circuit breakers, load
// shedding, retries, and drain logic contain every one of them — the
// process must never die. With all rates zero the wrappers are exact
// identities, so golden-trace digests stay bit-identical when chaos is
// disabled.
package chaos

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"deepqueuenet/internal/core"
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/serve"
)

// Fault enumerates the injectable fault kinds.
type Fault int

const (
	// FaultPanic panics inside a device model's PredictDevice — the
	// engine must recover it into a *guard.ShardError.
	FaultPanic Fault = iota
	// FaultNaN poisons one predicted sojourn with NaN — the divergence
	// watchdog must abort the run with a *guard.DivergenceError.
	FaultNaN
	// FaultLatency sleeps inside a device inference or a job run —
	// deadlines and the admission queue must absorb the slowdown.
	FaultLatency
	// FaultCancel cancels a job's context mid-run — the engine must
	// return partial results with guard.ErrCanceled.
	FaultCancel
	numFaults
)

// String implements fmt.Stringer.
func (f Fault) String() string {
	switch f {
	case FaultPanic:
		return "panic"
	case FaultNaN:
		return "nan"
	case FaultLatency:
		return "latency"
	case FaultCancel:
		return "cancel"
	}
	return "unknown"
}

// Config sets per-fault injection rates (probabilities in [0, 1]).
// Model-level faults (panic, NaN, latency) fire per egress-port stream
// of a PredictDevice call; job-level faults (cancel, latency) fire per
// runner invocation.
type Config struct {
	Seed uint64 // rng seed; 0 uses 1

	PanicRate   float64 // model: panic probability per port stream
	NaNRate     float64 // model: NaN-poisoning probability per port stream
	LatencyRate float64 // model + job: sleep probability
	CancelRate  float64 // job: mid-run context-cancel probability

	// Latency is the injected sleep duration. <= 0 uses 2ms.
	Latency time.Duration
	// CancelAfter is how far into a job the injected cancel lands.
	// <= 0 uses 500µs (mid-IRSA for typical example scenarios).
	CancelAfter time.Duration
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Latency <= 0 {
		c.Latency = 2 * time.Millisecond
	}
	if c.CancelAfter <= 0 {
		c.CancelAfter = 500 * time.Microsecond
	}
	return c
}

// Injector draws fault decisions from one seeded deterministic stream
// and counts what it injected. It is goroutine-safe; with a single
// consumer the decision sequence is exactly reproducible for a seed,
// and with concurrent consumers the per-fault totals remain governed by
// the configured rates while scheduling decides the interleaving.
type Injector struct {
	cfg Config

	mu sync.Mutex
	r  *rng.Rand

	counts [numFaults]atomic.Uint64
}

// New builds an injector.
func New(cfg Config) *Injector {
	cfg = cfg.withDefaults()
	return &Injector{cfg: cfg, r: rng.New(cfg.Seed)}
}

// roll decides one fault with probability rate, counting injections.
func (in *Injector) roll(f Fault, rate float64) bool {
	if rate <= 0 {
		return false
	}
	in.mu.Lock()
	hit := in.r.Float64() < rate
	in.mu.Unlock()
	if hit {
		in.counts[f].Add(1)
	}
	return hit
}

// Count returns how many times one fault kind has been injected.
func (in *Injector) Count(f Fault) uint64 { return in.counts[f].Load() }

// Counts returns every fault kind's injection count, keyed by name.
func (in *Injector) Counts() map[string]uint64 {
	out := make(map[string]uint64, numFaults)
	for f := Fault(0); f < numFaults; f++ {
		out[f.String()] = in.counts[f].Load()
	}
	return out
}

// Total returns the total number of injected faults.
func (in *Injector) Total() uint64 {
	var t uint64
	for f := Fault(0); f < numFaults; f++ {
		t += in.counts[f].Load()
	}
	return t
}

// WrapDevice wraps a validated device model with fault injection; its
// signature matches core.Config.WrapDevice. With all model-level rates
// zero it returns m unchanged, keeping the no-chaos path bit-identical.
func (in *Injector) WrapDevice(_ int, m core.DeviceModel) core.DeviceModel {
	if in.cfg.PanicRate <= 0 && in.cfg.NaNRate <= 0 && in.cfg.LatencyRate <= 0 {
		return m
	}
	return &chaosModel{inner: m, in: in}
}

// chaosModel injects faults around an inner DeviceModel's inference.
// Every egress port of a device call is an independent injection
// opportunity.
type chaosModel struct {
	inner core.DeviceModel
	in    *Injector
}

// PredictDevice implements core.DeviceModel with fault injection: port
// by port it rolls a panic and a latency before the one inner call, and
// after it a NaN that poisons the port's first prediction.
func (c *chaosModel) PredictDevice(ports []ptm.PortStream, kind des.SchedKind) {
	cfg := &c.in.cfg
	for range ports {
		if c.in.roll(FaultPanic, cfg.PanicRate) {
			panic(fmt.Sprintf("chaos: injected panic (seed %d)", cfg.Seed))
		}
		if c.in.roll(FaultLatency, cfg.LatencyRate) {
			time.Sleep(cfg.Latency)
		}
	}
	c.inner.PredictDevice(ports, kind)
	for i := range ports {
		if out := ports[i].Out; len(out) > 0 && c.in.roll(FaultNaN, cfg.NaNRate) {
			out[0] = math.NaN()
		}
	}
}

// CloneModel implements core.DeviceModel: the clone wraps an
// independent inner clone but shares the injector, so fault rates are
// global across shards.
func (c *chaosModel) CloneModel() core.DeviceModel {
	return &chaosModel{inner: c.inner.CloneModel(), in: c.in}
}

// WrapRunner wraps a serve.Runner with job-level fault injection:
// added latency before the run and a context canceled mid-run. With
// both job-level rates zero it returns next unchanged.
func (in *Injector) WrapRunner(next serve.Runner) serve.Runner {
	if in.cfg.CancelRate <= 0 && in.cfg.LatencyRate <= 0 {
		return next
	}
	return &chaosRunner{next: next, in: in}
}

// chaosRunner injects job-level faults around an inner Runner.
type chaosRunner struct {
	next serve.Runner
	in   *Injector
}

// Run implements serve.Runner.
func (c *chaosRunner) Run(ctx context.Context, req *serve.Request, mode serve.RunMode) (*serve.Result, error) {
	if c.in.roll(FaultLatency, c.in.cfg.LatencyRate) {
		t := time.NewTimer(c.in.cfg.Latency)
		select {
		case <-ctx.Done():
			t.Stop()
		case <-t.C:
		}
	}
	if c.in.roll(FaultCancel, c.in.cfg.CancelRate) {
		// A genuine cancellation (context.Canceled, mapped to
		// guard.ErrCanceled), not a deadline: the two take different
		// paths through guard.FromContext and the serve stats.
		cctx, cancel := context.WithCancel(ctx)
		timer := time.AfterFunc(c.in.cfg.CancelAfter, cancel)
		defer timer.Stop()
		defer cancel()
		ctx = cctx
	}
	return c.next.Run(ctx, req, mode)
}

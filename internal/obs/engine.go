package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"deepqueuenet/internal/core"
)

// iterBuckets sizes the IRSA iteration / device-inference histograms:
// device inferences on the CPU-scale PTM run tens of microseconds to
// tens of milliseconds, whole iterations up to seconds.
var iterBuckets = ExpBuckets(1e-5, 2.5, 16)

// EngineObserver is the standard core.Observer: it feeds a Registry
// with per-iteration convergence telemetry (delta trace ↔ Theorem 3.1)
// and per-device inference telemetry (shard/port batching ↔ Fig. 11),
// and keeps the raw delta trace for -obs-summary dumps. One
// EngineObserver may observe many runs; all methods are goroutine-safe.
type EngineObserver struct {
	iterations *Counter
	iterDur    *Histogram
	lastDelta  *Gauge
	converged  *Counter

	infDur     map[string]*Histogram // by device kind
	infPackets map[string]*Counter
	infCount   map[string]*Counter

	reg *Registry

	mu        sync.Mutex
	deltas    []float64
	shardWork map[int]time.Duration // accumulated per worker across iterations
	shardCtr  map[int]*Gauge
}

// engineKinds are the device-inference label values.
var engineKinds = []string{"switch", "host", "degraded"}

// NewEngineObserver registers the engine metric families in reg and
// returns the observer. Handles are created eagerly so the observe path
// never takes the registry lock.
func NewEngineObserver(reg *Registry) *EngineObserver {
	o := &EngineObserver{
		iterations: reg.Counter("dqn_irsa_iterations_total", "IRSA iterations executed"),
		iterDur:    reg.Histogram("dqn_irsa_iteration_seconds", "wall time per IRSA iteration", iterBuckets),
		lastDelta:  reg.Gauge("dqn_irsa_delta", "convergence delta of the most recent IRSA iteration (seconds)"),
		converged:  reg.Counter("dqn_irsa_converged_total", "iterations whose delta shrank versus the previous iteration"),
		infDur:     make(map[string]*Histogram, len(engineKinds)),
		infPackets: make(map[string]*Counter, len(engineKinds)),
		infCount:   make(map[string]*Counter, len(engineKinds)),
		reg:        reg,
		// Pre-size the delta trace so appends do not realloc mid-run:
		// growth would show up as nondeterministic allocs/op in the
		// bench gate (IRSA converges in far fewer iterations than this).
		deltas:    make([]float64, 0, 512),
		shardWork: make(map[int]time.Duration),
		shardCtr:  make(map[int]*Gauge),
	}
	for _, k := range engineKinds {
		o.infDur[k] = reg.Histogram("dqn_inference_seconds", "wall time per device inference", iterBuckets, L("kind", k))
		o.infPackets[k] = reg.Counter("dqn_inference_packets_total", "packet traversals inferred", L("kind", k))
		o.infCount[k] = reg.Counter("dqn_inference_total", "device inferences executed", L("kind", k))
	}
	return o
}

// ObserveIteration implements core.Observer.
func (o *EngineObserver) ObserveIteration(ev core.IterationEvent) {
	o.iterations.Inc()
	o.iterDur.Observe(ev.Duration.Seconds())
	o.lastDelta.Set(ev.Delta)
	o.mu.Lock()
	if n := len(o.deltas); n > 0 && ev.Delta < o.deltas[n-1] {
		o.converged.Inc()
	}
	o.deltas = append(o.deltas, ev.Delta)
	for si, w := range ev.ShardWork {
		o.shardWork[si] += w
		g, ok := o.shardCtr[si]
		if !ok {
			g = o.reg.Gauge("dqn_shard_work_seconds", "accumulated inference wall time per inference worker (the shard label is the worker index)",
				L("shard", strconv.Itoa(si)))
			o.shardCtr[si] = g
		}
		g.Add(w.Seconds())
	}
	o.mu.Unlock()
}

// ObserveInference implements core.Observer.
func (o *EngineObserver) ObserveInference(ev core.InferenceEvent) {
	kind := "switch"
	switch {
	case ev.Host:
		kind = "host"
	case ev.Degraded:
		kind = "degraded"
	}
	o.infDur[kind].Observe(ev.Duration.Seconds())
	o.infPackets[kind].Add(uint64(ev.Packets))
	o.infCount[kind].Inc()
}

// Deltas returns a copy of the observed per-iteration delta trace.
func (o *EngineObserver) Deltas() []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]float64(nil), o.deltas...)
}

// ShardWork returns the accumulated per-worker inference wall time,
// indexed by worker (missing workers are zero).
func (o *EngineObserver) ShardWork() []time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	max := -1
	for si := range o.shardWork {
		if si > max {
			max = si
		}
	}
	out := make([]time.Duration, max+1)
	for si, w := range o.shardWork {
		out[si] = w
	}
	return out
}

// WriteSummary renders the human-readable -obs-summary block: the
// convergence story (iterations, delta trace), the per-worker work
// balance, and the full registry in exposition format — so an offline
// run's telemetry reads exactly like a scrape of a served run.
func (o *EngineObserver) WriteSummary(w io.Writer) error {
	deltas := o.Deltas()
	work := o.ShardWork()
	fmt.Fprintf(w, "# obs summary\n")
	fmt.Fprintf(w, "iterations: %d\n", len(deltas))
	if len(deltas) > 0 {
		fmt.Fprintf(w, "final delta: %s\n", formatFloat(deltas[len(deltas)-1]))
		fmt.Fprintf(w, "delta trace:")
		for _, d := range deltas {
			fmt.Fprintf(w, " %s", formatFloat(d))
		}
		fmt.Fprintln(w)
	}
	if len(work) > 0 {
		var total, crit time.Duration
		for _, d := range work {
			total += d
			if d > crit {
				crit = d
			}
		}
		fmt.Fprintf(w, "shard work:")
		for si, d := range work {
			fmt.Fprintf(w, " s%d=%v", si, d.Round(time.Microsecond))
		}
		fmt.Fprintln(w)
		if crit > 0 {
			// total/critical-path = the Fig. 11 model-parallel speedup an
			// N-accelerator deployment would see for this decomposition.
			fmt.Fprintf(w, "parallel speedup (total/critical-path): %.2f\n", float64(total)/float64(crit))
		}
	}
	fmt.Fprintf(w, "# metrics\n")
	return o.reg.WritePrometheus(w)
}

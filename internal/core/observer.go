package core

import (
	"slices"
	"time"
)

// IterationEvent describes one completed IRSA iteration — the runtime
// view of the fixed-point recursion Theorem 3.1 bounds. Delta is the
// convergence measure the stopping rule and the divergence watchdog
// consume, so an observer sees exactly the trace that decides the run's
// fate.
type IterationEvent struct {
	// Iter is the 0-based iteration index.
	Iter int
	// Delta is the largest departure-time change produced by this
	// iteration's propagation sweep.
	Delta float64
	// Duration is the wall-clock time of the whole iteration (inference
	// sweep, damping, propagation).
	Duration time.Duration
	// ShardWork is the per-worker inference wall time of this iteration,
	// indexed by worker — the Fig. 11 model-parallel load picture. The
	// slice is owned by the engine and reused across iterations:
	// observers must copy it if they retain it beyond the call.
	ShardWork []time.Duration
}

// InferenceEvent describes one device inference inside an IRSA
// iteration: the unit of work the per-device batching (Fig. 11)
// schedules across workers.
type InferenceEvent struct {
	// Device is the topology node ID.
	Device int
	// Shard is the worker that executed the inference; a device may run
	// on a different worker every iteration.
	Shard int
	// Ports is the number of egress ports inferred.
	Ports int
	// Packets is the total number of packet traversals across those
	// ports.
	Packets int
	// Duration is the wall-clock time of the inference.
	Duration time.Duration
	// Host marks a host egress (exact FIFO serialization, no DNN).
	Host bool
	// Degraded marks a switch served by the exact FIFO fallback because
	// its model was missing or invalid.
	Degraded bool
}

// Observer receives engine telemetry. A nil Config.Observer costs one
// nil check per call site and nothing else: no clocks are read and no
// events are built. Implementations must be goroutine-safe —
// ObserveInference is called concurrently from every worker goroutine.
// Observers must not mutate anything reachable from the event, and the
// engine never lets observer timing feed back into simulation state, so
// an attached observer cannot perturb results (golden traces stay
// bit-identical either way).
type Observer interface {
	// ObserveIteration fires once per IRSA iteration, after the
	// propagation sweep computed Delta and before the stopping rule
	// consumes it.
	ObserveIteration(IterationEvent)
	// ObserveInference fires once per device inference, from the worker
	// goroutine that ran it.
	ObserveInference(InferenceEvent)
}

// ReplaySweep returns the per-worker busy time of one sweep on n
// workers whose device inferences take durs, in queue order: each
// device goes to the worker that frees up first, the one with the least
// time so far (ties to the lower index), which is what the engine's
// workers pulling from the sweep's queue do. Fed the InferenceEvent
// durations of a Shards-1 run, one sweep at a time, it gives the
// critical path of n workers that do not contend for cores — one
// accelerator each (Fig. 11, Table 7) — whatever the host's core count.
// n must be at least 1.
func ReplaySweep(durs []time.Duration, n int) []time.Duration {
	slots := make([]time.Duration, n)
	for _, d := range durs {
		slots[slices.Index(slots, slices.Min(slots))] += d
	}
	return slots
}

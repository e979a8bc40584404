package plane

import "deepqueuenet/internal/obs"

// Why a micro-batch left the queue (the dqn_batch_flushes_total reason
// label).
const (
	// flushDrain: the queue ran dry — natural batching, no added wait.
	flushDrain = "drain"
	// flushSize: the batch reached MaxBatch calls.
	flushSize = "size"
)

// Metrics are the plane's pre-registered dqn_batch_* handles. Every
// counter on the flush path is a pre-created atomic handle, matching
// the serve layer's no-lock-no-alloc metric discipline.
type Metrics struct {
	reg *obs.Registry

	// Calls counts device prediction calls submitted to the plane.
	Calls *obs.Counter
	// Coalesced counts calls that shared their flush with at least one
	// other call — the cross-request batching the plane exists for.
	Coalesced *obs.Counter
	// Flushes counts micro-batch flushes by reason (drain/size).
	Flushes map[string]*obs.Counter
	// BatchSize observes calls per flush.
	BatchSize *obs.Histogram
	// BatchSeconds observes execution wall time per flush.
	BatchSeconds *obs.Histogram
	// WorkersStarted / WorkerEvictions track warm-worker lifecycle.
	WorkersStarted  *obs.Counter
	WorkerEvictions *obs.Counter
}

// batchSizeBuckets cover micro-batch sizes 1..MaxBatch and beyond.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// batchSecBuckets cover flush execution times: tens of microseconds for
// a lone tiny device through tens of milliseconds for a full mega-batch.
var batchSecBuckets = []float64{1e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25}

// NewMetrics registers the dqn_batch_* families in reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		reg:   reg,
		Calls: reg.Counter("dqn_batch_calls_total", "device prediction calls submitted to the inference plane"),
		Coalesced: reg.Counter("dqn_batch_coalesced_total",
			"plane calls that shared a micro-batch flush with at least one other call"),
		Flushes:   make(map[string]*obs.Counter, 2),
		BatchSize: reg.Histogram("dqn_batch_size", "device calls per micro-batch flush", batchSizeBuckets),
		BatchSeconds: reg.Histogram("dqn_batch_seconds",
			"execution wall time per micro-batch flush", batchSecBuckets),
		WorkersStarted:  reg.Counter("dqn_batch_workers_started_total", "warm per-model plane workers spawned"),
		WorkerEvictions: reg.Counter("dqn_batch_worker_evictions_total", "warm plane workers retired by the LRU bound"),
	}
	for _, r := range []string{flushDrain, flushSize} {
		m.Flushes[r] = reg.Counter("dqn_batch_flushes_total",
			"micro-batch flushes by trigger", obs.L("reason", r))
	}
	return m
}

// bindPlane registers the gauges that read live plane state.
func (m *Metrics) bindPlane(p *Plane) {
	reg := m.reg
	reg.GaugeFunc("dqn_batch_queue_depth", "submitted-but-unfinished plane calls",
		func() float64 { return float64(p.Depth()) })
	reg.GaugeFunc("dqn_batch_workers", "live warm per-model plane workers",
		func() float64 { return float64(p.Workers()) })
}

// observeFlush records one flush.
func (m *Metrics) observeFlush(batch []*call, reason string, elapsedSec float64) {
	m.Calls.Add(uint64(len(batch)))
	if len(batch) > 1 {
		m.Coalesced.Add(uint64(len(batch)))
	}
	m.Flushes[reason].Inc()
	m.BatchSize.Observe(float64(len(batch)))
	m.BatchSeconds.Observe(elapsedSec)
}

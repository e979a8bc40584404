// Package plane implements the shared cross-request inference plane:
// a model-keyed batcher that coalesces device prediction calls from
// many concurrent simulation jobs onto warm per-model workers.
//
// Every simulation job used to clone its model once per shard, build a
// private inference session (arena, weight packs, feature buffers) and
// run its IRSA device calls interleaved with every other job's. The
// plane inverts that: one long-lived worker goroutine per distinct
// model owns one warm clone and serves device-batched predictions for
// every job that shares the model. Jobs submit a call and park; the
// worker drains the queue into micro-batches and flushes when the batch
// reaches MaxBatch or the queue runs dry (natural batching — an idle
// plane adds no latency). A worker runs a batch's calls one after
// another on one model, so holding a batch back to let it fill could
// not make any call finish sooner; there is no such wait.
//
// Results are bit-identical to private-shard inference by construction:
// PTM prediction is history-independent (a session is reusable scratch,
// not state), so running N jobs' port streams back-to-back through one
// warm session produces exactly the bits each job would have produced
// alone. The golden-plane tests pin this at Shards = 1 and 8.
//
// Attribution: every call carries its submitting job's tag, each port
// stream's Out slice is owned by the submitting run (results cannot
// land in another job's buffers), and the per-run engine observer times
// each device call on the submitting side. The plane's own dqn_batch_*
// metrics aggregate batch sizes, flush reasons, queue depth and
// execution latency across all requests.
package plane

import (
	"sync"
	"time"

	"deepqueuenet/internal/core"
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/ptm"
)

// Config tunes the plane's batching policy.
type Config struct {
	// MaxBatch flushes a micro-batch when it reaches this many device
	// calls. <= 0 uses 16.
	MaxBatch int
	// QueueDepth bounds each worker's pending-call queue; submitters
	// block (backpressure) when it is full. <= 0 uses 256.
	QueueDepth int
	// MaxWorkers bounds the number of warm per-model workers kept
	// alive, mirroring the serving layer's 64-key breaker/registry
	// bound. Least-recently-used idle workers are drained and retired
	// when the bound is exceeded. <= 0 uses 64.
	MaxWorkers int
	// Metrics, when non-nil, receives the plane's dqn_batch_* series.
	Metrics *Metrics
}

const (
	defaultMaxBatch   = 16
	defaultQueueDepth = 256
	defaultMaxWorkers = 64
)

// call is one parked device prediction: the submitting goroutine blocks
// on done while the worker fills every port's Out slice in place.
type call struct {
	ports []ptm.PortStream
	kind  des.SchedKind
	tag   string
	// panicked carries a recovered worker panic back to the submitting
	// goroutine, which re-raises it so the engine's shard guard turns
	// it into a *guard.ShardError exactly as with private shards.
	panicked any
	done     chan struct{}
}

// Plane is the shared inference plane. The zero value is not usable;
// call New.
type Plane struct {
	cfg Config

	mu      sync.Mutex
	workers map[core.DeviceModel]*worker
	seq     uint64 // LRU clock
	closed  bool
	wg      sync.WaitGroup

	// pending is the total number of submitted-but-unfinished calls,
	// maintained under mu; RetryAfter estimation reads it via Depth.
	pending int

	// Batch execution EWMAs (seconds per flush, calls per flush),
	// maintained by workers under mu.
	avgBatchSec  float64
	avgBatchSize float64
}

// New builds a plane and applies Config defaults.
func New(cfg Config) *Plane {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = defaultMaxBatch
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = defaultMaxWorkers
	}
	p := &Plane{cfg: cfg, workers: make(map[core.DeviceModel]*worker)}
	if cfg.Metrics != nil {
		cfg.Metrics.bindPlane(p)
	}
	return p
}

// worker is one warm per-model inference worker: a goroutine that owns
// a private clone of its model (hence a private session: arena, packs,
// buffers) and serves micro-batches of calls from its queue.
type worker struct {
	key   core.DeviceModel
	ch    chan *call
	dead  bool   // set under Plane.mu: no further sends permitted
	used  uint64 // LRU clock value of the last submit
	inUse int    // submitters currently between enqueue and done
}

// Predict submits one device's egress-port streams for prediction and
// blocks until every port's Out slice is filled. key identifies the
// shared model (the warm worker's clone source); results are
// bit-identical to key.CloneModel().PredictDevice(ports, kind).
func (p *Plane) Predict(key core.DeviceModel, ports []ptm.PortStream, kind des.SchedKind, tag string) {
	c := &call{ports: ports, kind: kind, tag: tag, done: make(chan struct{})}
	w := p.enqueue(key, c)
	if w == nil {
		// Plane closed (server shutdown race): run inline on a private
		// clone — slower, bit-identical, never wedges the caller.
		key.CloneModel().PredictDevice(ports, kind)
		return
	}
	w.ch <- c
	<-c.done
	p.mu.Lock()
	p.pending--
	w.inUse--
	p.mu.Unlock()
	if c.panicked != nil {
		panic(c.panicked)
	}
}

// enqueue resolves (or spawns) the worker for key and registers the
// call under the plane lock. It returns nil when the plane is closed.
func (p *Plane) enqueue(key core.DeviceModel, c *call) *worker {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	w := p.workers[key]
	spawned := false
	if w == nil || w.dead {
		w = &worker{key: key, ch: make(chan *call, p.cfg.QueueDepth)}
		p.workers[key] = w
		p.wg.Add(1)
		go p.run(w)
		if m := p.cfg.Metrics; m != nil {
			m.WorkersStarted.Inc()
		}
		spawned = true
	}
	p.seq++
	w.used = p.seq
	w.inUse++
	p.pending++
	if spawned {
		// Evict only after registering this call: the new worker now has
		// inUse > 0 and the freshest LRU stamp, so it cannot be its own
		// victim.
		p.evictLocked()
	}
	return w
}

// evictLocked retires least-recently-used idle workers beyond
// MaxWorkers. A worker with in-flight submitters is never retired, so a
// caller between enqueue and send can never hit a closed channel.
func (p *Plane) evictLocked() {
	for len(p.workers) > p.cfg.MaxWorkers {
		var victim *worker
		var victimKey core.DeviceModel
		for k, w := range p.workers {
			if w.inUse > 0 || w.dead {
				continue
			}
			if victim == nil || w.used < victim.used {
				victim, victimKey = w, k
			}
		}
		if victim == nil {
			return // every worker is busy; stay over the bound until one idles
		}
		victim.dead = true
		close(victim.ch)
		delete(p.workers, victimKey)
		if m := p.cfg.Metrics; m != nil {
			m.WorkerEvictions.Inc()
		}
	}
}

// run is the worker loop: block for one call, drain greedily, flush.
func (p *Plane) run(w *worker) {
	defer p.wg.Done()
	var model core.DeviceModel // lazily cloned warm model
	batch := make([]*call, 0, p.cfg.MaxBatch)
	for {
		c, ok := <-w.ch
		if !ok {
			return
		}
		batch = append(batch[:0], c)
		reason := flushDrain
	drain:
		for len(batch) < p.cfg.MaxBatch {
			select {
			case c2, ok := <-w.ch:
				if !ok {
					break drain
				}
				batch = append(batch, c2)
			default:
				break drain
			}
		}
		if len(batch) >= p.cfg.MaxBatch {
			reason = flushSize
		}
		if model == nil {
			model = w.key.CloneModel()
		}
		p.flush(model, batch, reason)
	}
}

// flush runs one micro-batch on the worker's warm model, completing
// each call as its device finishes so low-latency submitters never wait
// on the whole batch.
func (p *Plane) flush(model core.DeviceModel, batch []*call, reason string) {
	start := time.Now()
	for _, c := range batch {
		runCall(model, c)
		close(c.done)
	}
	elapsed := time.Since(start).Seconds()

	p.mu.Lock()
	const alpha = 0.2
	if p.avgBatchSec == 0 {
		p.avgBatchSec = elapsed
		p.avgBatchSize = float64(len(batch))
	} else {
		p.avgBatchSec += alpha * (elapsed - p.avgBatchSec)
		p.avgBatchSize += alpha * (float64(len(batch)) - p.avgBatchSize)
	}
	p.mu.Unlock()

	if m := p.cfg.Metrics; m != nil {
		m.observeFlush(batch, reason, elapsed)
	}
}

// runCall executes one call with panic capture: a model panic (chaos
// injection, hostile weights) is carried back to the submitting shard
// instead of killing the shared worker.
func runCall(model core.DeviceModel, c *call) {
	defer func() {
		if r := recover(); r != nil {
			c.panicked = r
		}
	}()
	model.PredictDevice(c.ports, c.kind)
}

// Depth reports the number of submitted-but-unfinished calls across all
// workers — the queue-depth input of the serving layer's Retry-After
// estimate.
func (p *Plane) Depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

// Workers reports the number of live warm workers.
func (p *Plane) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, w := range p.workers {
		if !w.dead {
			n++
		}
	}
	return n
}

// BatchStats returns the EWMA batch execution time (seconds per flush)
// and EWMA batch size (calls per flush). Zeros mean no flush has run.
func (p *Plane) BatchStats() (avgSec, avgSize float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.avgBatchSec, p.avgBatchSize
}

// Close retires every worker and waits for them to drain. Calls
// submitted after Close run inline on private clones; the caller should
// drain its job sources first. A worker's channel is only ever closed
// while no submitter is in flight on it (inUse == 0), so a send can
// never hit a closed channel; busy workers are retired as they idle.
func (p *Plane) Close() {
	p.mu.Lock()
	p.closed = true
	for {
		for k, w := range p.workers {
			if w.inUse > 0 {
				continue
			}
			w.dead = true
			close(w.ch)
			delete(p.workers, k)
		}
		if len(p.workers) == 0 {
			break
		}
		p.mu.Unlock()
		time.Sleep(100 * time.Microsecond)
		p.mu.Lock()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

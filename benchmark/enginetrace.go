package main

import (
	"sync"
	"time"

	"deepqueuenet/internal/core"
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/ptm"
)

// predictRec is one timed device-model prediction call.
type predictRec struct {
	dev        int
	start, end time.Time
	pkts       int
	windows    int
}

// inferRec is one device inference as the engine's observer reports it.
type inferRec struct {
	dev, shard int
	start, end time.Time
	host       bool
}

// iterRec is one IRSA iteration with the inferences and predictions
// that happened inside it.
type iterRec struct {
	start, end time.Time
	shardWork  []time.Duration
	infers     []inferRec
	predicts   []predictRec
}

// runTrace collects the telemetry of one engine run through the two
// public seams: it is the run's core.Config.Observer, and its wrap
// method is the run's core.Config.WrapDevice. Events arrive after the
// fact (the engine reports durations), so spans are assembled in flush
// once the run has ended.
type runTrace struct {
	// timeSteps and margin are the model's windowing, for counting the
	// DNN windows a prediction call runs.
	timeSteps, margin int

	mu       sync.Mutex
	iters    []iterRec
	infers   []inferRec   // since the last iteration boundary
	predicts []predictRec // since the last iteration boundary
}

// ObserveIteration implements core.Observer. Every inference and
// prediction recorded since the previous boundary belongs to this
// iteration: the engine fires this after all shards have joined.
func (r *runTrace) ObserveIteration(ev core.IterationEvent) {
	now := time.Now()
	r.mu.Lock()
	r.iters = append(r.iters, iterRec{
		start: now.Add(-ev.Duration), end: now,
		shardWork: append([]time.Duration(nil), ev.ShardWork...),
		infers:    r.infers, predicts: r.predicts,
	})
	r.infers, r.predicts = nil, nil
	r.mu.Unlock()
}

// ObserveInference implements core.Observer.
func (r *runTrace) ObserveInference(ev core.InferenceEvent) {
	now := time.Now()
	r.mu.Lock()
	r.infers = append(r.infers, inferRec{dev: ev.Device, shard: ev.Shard,
		start: now.Add(-ev.Duration), end: now, host: ev.Host})
	r.mu.Unlock()
}

func (r *runTrace) addPredict(p predictRec) {
	r.mu.Lock()
	r.predicts = append(r.predicts, p)
	r.mu.Unlock()
}

// wrap is the WrapDevice seam: it times every prediction of the device.
func (r *runTrace) wrap(dev int, m core.DeviceModel) core.DeviceModel {
	return wrapTimed(dev, m, r.timeSteps, r.margin, r.addPredict)
}

// timedDevice times the device-batched prediction path of a model. It
// is a pointer type (comparable, as the engine's clone cache requires)
// and forwards everything else unchanged, so results stay bit-identical.
type timedDevice struct {
	core.DeviceModel
	pred              core.DevicePredictor
	dev               int
	timeSteps, margin int
	record            func(predictRec)
}

// wrapTimed wraps m when it offers the device-batched fast path (every
// model the repo ships does); a model without it is returned unwrapped
// so the wrapper never pushes a run onto a slower path.
func wrapTimed(dev int, m core.DeviceModel, timeSteps, margin int, record func(predictRec)) core.DeviceModel {
	pred, ok := m.(core.DevicePredictor)
	if !ok {
		return m
	}
	return &timedDevice{DeviceModel: m, pred: pred, dev: dev,
		timeSteps: timeSteps, margin: margin, record: record}
}

// CloneModel keeps the per-shard clones timed too.
func (t *timedDevice) CloneModel() core.DeviceModel {
	return wrapTimed(t.dev, t.DeviceModel.CloneModel(), t.timeSteps, t.margin, t.record)
}

// PredictDevice implements core.DevicePredictor.
func (t *timedDevice) PredictDevice(ports []ptm.PortStream, kind des.SchedKind) {
	start := time.Now()
	t.pred.PredictDevice(ports, kind)
	end := time.Now()
	rec := predictRec{dev: t.dev, start: start, end: end}
	for i := range ports {
		rec.pkts += len(ports[i].Stream)
		rec.windows += windowCount(len(ports[i].Stream), t.timeSteps, t.margin)
	}
	t.record(rec)
}

// windowCount returns how many DNN windows ptm tiles a stream of n packets
// into, for chunk length c and margin m. It is len(ptm.Chunks(n, c, m))
// without building the tiling: one whole window up to c packets, otherwise
// a first and a final window plus one per full step between them.
func windowCount(n, c, m int) int {
	switch {
	case n <= 0:
		return 0
	case n <= c:
		return 1
	}
	return 2 + (n-c-1)/(c-2*m)
}

// engineTotals are the per-layer sums of one or more traced engine runs.
type engineTotals struct {
	runNs       time.Duration // Σ run spans
	iterNs      time.Duration // Σ iteration spans
	inferBusy   time.Duration // Σ device inference spans (hosts included)
	shardWork   time.Duration // Σ over iterations and shards of shard work
	shardCrit   time.Duration // Σ over iterations of the slowest shard
	predictBusy time.Duration
	calls       int
	pkts        int
	windows     int
}

// flush turns one finished run into spans under parent and adds its
// sums to tot.
func (r *runTrace) flush(t *tracer, parent, req int64, start, end time.Time, tot *engineTotals) {
	r.mu.Lock()
	defer r.mu.Unlock()
	runID := t.add(parent, req, "core.run", start, end)
	tot.runNs += end.Sub(start)
	for _, it := range r.iters {
		itID := t.add(runID, req, "core.iteration", it.start, it.end)
		tot.iterNs += it.end.Sub(it.start)
		var crit time.Duration
		for _, w := range it.shardWork {
			tot.shardWork += w
			if w > crit {
				crit = w
			}
		}
		tot.shardCrit += crit
		// One shard span per shard, from its first inference to its last.
		type bounds struct{ lo, hi time.Time }
		shards := make(map[int]*bounds)
		for _, in := range it.infers {
			b := shards[in.shard]
			if b == nil {
				shards[in.shard] = &bounds{in.start, in.end}
				continue
			}
			if in.start.Before(b.lo) {
				b.lo = in.start
			}
			if in.end.After(b.hi) {
				b.hi = in.end
			}
		}
		shardID := make(map[int]int64, len(shards))
		for si, b := range shards {
			shardID[si] = t.add(itID, req, "core.shard", b.lo, b.hi)
		}
		devID := make(map[int]int64, len(it.infers))
		for _, in := range it.infers {
			name := "core.device"
			if in.host {
				name = "core.host"
			}
			devID[in.dev] = t.add(shardID[in.shard], req, name, in.start, in.end)
			tot.inferBusy += in.end.Sub(in.start)
		}
		for _, p := range it.predicts {
			t.add(devID[p.dev], req, "ptm.predict", p.start, p.end)
			tot.predictBusy += p.end.Sub(p.start)
			tot.calls++
			tot.pkts += p.pkts
			tot.windows += p.windows
		}
	}
}

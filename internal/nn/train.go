package nn

import (
	"fmt"
	"runtime"
	"sync"

	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/tensor"
)

// Dataset is a supervised sequence-regression dataset: each sample is a
// T×F feature chunk with a T×1 target sequence. Loss is evaluated only
// on positions [Lo, Hi) — the chunk interior with full bidirectional
// context (edge positions are covered by neighbouring chunks).
type Dataset struct {
	X      []*tensor.Matrix
	Y      []*tensor.Matrix
	Lo, Hi []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Append adds one sample with loss positions [lo, hi).
func (d *Dataset) Append(x, y *tensor.Matrix, lo, hi int) {
	if y.Rows != x.Rows || y.Cols != 1 {
		panic("nn: target must be T×1 matching the input rows")
	}
	if lo < 0 || hi > x.Rows || lo >= hi {
		panic("nn: invalid loss range")
	}
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
	d.Lo = append(d.Lo, lo)
	d.Hi = append(d.Hi, hi)
}

// Split partitions the dataset into training and validation sets with the
// given training fraction, shuffled deterministically by seed.
func (d *Dataset) Split(trainFrac float64, seed uint64) (train, val *Dataset) {
	r := rng.New(seed)
	perm := r.Perm(d.Len())
	nTrain := int(trainFrac * float64(d.Len()))
	train, val = &Dataset{}, &Dataset{}
	for i, idx := range perm {
		dst := val
		if i < nTrain {
			dst = train
		}
		dst.Append(d.X[idx], d.Y[idx], d.Lo[idx], d.Hi[idx])
	}
	return train, val
}

// sampleLoss runs forward/backward (backward only when train) for one
// sample and returns the summed squared error and position count.
func sampleLoss(m *Sequential, ds *Dataset, idx int, train bool) (sse float64, n int) {
	pred := m.Forward(ds.X[idx])
	lo, hi := ds.Lo[idx], ds.Hi[idx]
	dy := tensor.New(pred.Rows, 1)
	y := ds.Y[idx]
	for t := lo; t < hi; t++ {
		diff := pred.At(t, 0) - y.At(t, 0)
		sse += diff * diff
		dy.Set(t, 0, 2*diff/float64(hi-lo))
	}
	if train {
		m.Backward(dy)
	}
	return sse, hi - lo
}

// gradShards is the number of pieces every minibatch gradient is
// reduced over. Sample i of a batch belongs to shard i mod gradShards;
// each shard sums its samples' gradients from zero in batch order, and
// the shards are added into the master gradient in shard order. Workers
// only decide which goroutine computes which shard, so the trained
// weights do not depend on them. Four shards give the weights that
// Workers 4 gave when the reduction followed the worker count.
const gradShards = 4

// TrainConfig controls the data-parallel training loop.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	// Workers is the number of goroutines computing the gradient
	// shards: 0 means GOMAXPROCS, and more than gradShards run as
	// gradShards. The trained weights are the same for every value.
	Workers int
	Seed    uint64
	// LogEvery, if > 0, records the loss every LogEvery optimizer steps.
	LogEvery int
}

// TrainResult reports the loss trajectory of a training run.
type TrainResult struct {
	Steps  []int
	Losses []float64 // minibatch MSE at each recorded step
	Final  float64   // mean loss of the last epoch
}

// Train fits the model to the dataset with data-parallel minibatch SGD
// (Adam). Every minibatch is split into gradShards shards, each run on
// its own model replica, and their gradients are averaged into the
// master model in shard order — the CPU analogue of the paper's
// multi-GPU training. The master model is updated in place.
func Train(model *Sequential, ds *Dataset, cfg TrainConfig) TrainResult {
	if ds.Len() == 0 {
		return TrainResult{}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	cfg.Workers = min(cfg.Workers, gradShards)
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.001
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}

	replicas := make([]*Sequential, gradShards)
	for i := range replicas {
		replicas[i] = model.Clone()
	}
	opt := NewAdam(model.Params(), cfg.LR)
	r := rng.New(cfg.Seed)
	var res TrainResult
	step := 0

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := r.Perm(ds.Len())
		epochLoss, epochBatches := 0.0, 0
		for start := 0; start < len(perm); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(perm) {
				end = len(perm)
			}
			batch := perm[start:end]
			losses := make([]float64, gradShards)
			counts := make([]int, gradShards)
			panics := make([]*guard.WorkerError, cfg.Workers)
			var wg sync.WaitGroup
			for w := 0; w < cfg.Workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					defer func() {
						if we := guard.RecoveredWorker(w, recover()); we != nil {
							panics[w] = we
						}
					}()
					for sh := w; sh < gradShards; sh += cfg.Workers {
						rep := replicas[sh]
						rep.ZeroGrads()
						for bi := sh; bi < len(batch); bi += gradShards {
							sse, n := sampleLoss(rep, ds, batch[bi], true)
							losses[sh] += sse
							counts[sh] += n
						}
					}
				}(w)
			}
			wg.Wait()
			guard.RethrowWorkers(panics)

			// Average the shard gradients into the master gradients.
			master := model.Params()
			for _, p := range master {
				p.G.Zero()
			}
			scale := 1 / float64(len(batch))
			loss, positions := 0.0, 0
			for sh := range replicas {
				loss += losses[sh]
				positions += counts[sh]
				for pi, p := range replicas[sh].Params() {
					for j, g := range p.G.Data {
						master[pi].G.Data[j] += g * scale
					}
				}
			}
			if positions > 0 {
				loss /= float64(positions)
			}
			opt.Step()
			for _, rep := range replicas {
				rep.SyncFrom(model)
			}

			step++
			epochLoss += loss
			epochBatches++
			if cfg.LogEvery > 0 && step%cfg.LogEvery == 0 {
				res.Steps = append(res.Steps, step)
				res.Losses = append(res.Losses, loss)
			}
		}
		if epochBatches > 0 {
			res.Final = epochLoss / float64(epochBatches)
		}
	}
	return res
}

// Evaluate returns the per-position MSE of the model over the dataset.
func Evaluate(model *Sequential, ds *Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	sum, n := 0.0, 0
	for i := range ds.X {
		sse, c := sampleLoss(model, ds, i, false)
		sum += sse
		n += c
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// String summarizes the training result.
func (r TrainResult) String() string {
	return fmt.Sprintf("final MSE %.6g over %d recorded steps", r.Final, len(r.Steps))
}

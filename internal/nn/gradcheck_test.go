package nn

import (
	"math"
	"testing"

	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/tensor"
)

// diffable is what the gradient check needs of a layer: the LSTM, one
// half of a BLSTM, is checked on its own without being a Layer.
type diffable interface {
	Forward(x *tensor.Matrix) *tensor.Matrix
	Backward(dy *tensor.Matrix) *tensor.Matrix
	Params() []*Param
}

// lossOf computes sum(Forward(x) ⊙ R): a random linear functional of the
// layer output, giving a scalar loss whose gradients we can check
// numerically against the layer's Backward.
func lossOf(l diffable, x, r *tensor.Matrix) float64 {
	y := l.Forward(x)
	sum := 0.0
	for i := range y.Data {
		sum += y.Data[i] * r.Data[i]
	}
	return sum
}

// checkGrads verifies input and parameter gradients of layer l at input x
// against central finite differences.
func checkGrads(t *testing.T, name string, l diffable, x *tensor.Matrix, outRows, outCols int) {
	t.Helper()
	rr := rng.New(99)
	R := tensor.New(outRows, outCols)
	for i := range R.Data {
		R.Data[i] = rr.Normal(0, 1)
	}
	for _, p := range l.Params() {
		p.G.Zero()
	}
	_ = lossOf(l, x, R) // forward to populate caches
	dx := l.Backward(R.Clone())

	const eps = 1e-5
	const tol = 1e-4

	// Input gradient.
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := lossOf(l, x, R)
		x.Data[i] = orig - eps
		lm := lossOf(l, x, R)
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dx.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("%s: input grad [%d] analytic %v vs numeric %v", name, i, dx.Data[i], num)
		}
	}

	// Parameter gradients. Re-run forward/backward to have fresh caches
	// per check since lossOf overwrites them.
	for _, p := range l.Params() {
		p.G.Zero()
	}
	_ = lossOf(l, x, R)
	l.Backward(R.Clone())
	for pi, p := range l.Params() {
		for j := range p.W.Data {
			orig := p.W.Data[j]
			p.W.Data[j] = orig + eps
			lp := lossOf(l, x, R)
			p.W.Data[j] = orig - eps
			lm := lossOf(l, x, R)
			p.W.Data[j] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-p.G.Data[j]) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s: param %d (%s) grad [%d] analytic %v vs numeric %v",
					name, pi, p.Name, j, p.G.Data[j], num)
			}
		}
	}
}

func randInput(seed uint64, rows, cols int) *tensor.Matrix {
	r := rng.New(seed)
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Normal(0, 1)
	}
	return m
}

func TestDenseGradients(t *testing.T) {
	l := NewDense(4, 3, rng.New(1))
	checkGrads(t, "dense", l, randInput(2, 5, 4), 5, 3)
}

func TestActivationGradients(t *testing.T) {
	checkGrads(t, "tanh", NewTanh(), randInput(3, 4, 3), 4, 3)
}

func TestLSTMGradients(t *testing.T) {
	l := NewLSTM(3, 4, rng.New(2))
	checkGrads(t, "lstm", l, randInput(5, 6, 3), 6, 4)
}

func TestBLSTMGradients(t *testing.T) {
	l := NewBLSTM(3, 3, rng.New(3))
	checkGrads(t, "blstm", l, randInput(6, 5, 3), 5, 6)
}

func TestAttentionGradients(t *testing.T) {
	l := NewMultiHeadSelfAttention(4, 3, 2, 3, 2, rng.New(4))
	checkGrads(t, "mha", l, randInput(7, 5, 4), 5, 3)
}

// TestSequentialGradients checks the PTM's seq2seq stack end to end:
// embedding, BLSTM, attention and a per-row regression head, with the
// loss over every output row, as the PTM trains.
func TestSequentialGradients(t *testing.T) {
	r := rng.New(5)
	m := NewSequential(
		NewDense(3, 5, r),
		NewTanh(),
		NewBLSTM(5, 3, r),
		NewMultiHeadSelfAttention(6, 4, 2, 2, 2, r),
		NewTanh(),
		NewDense(4, 1, r),
	)
	x := randInput(10, 7, 3)
	R := randInput(11, 7, 1)

	loss := func() float64 { return lossOf(m, x, R) }
	m.ZeroGrads()
	_ = loss()
	dx := m.Backward(R.Clone())

	const eps, tol = 1e-5, 1e-4
	for i := 0; i < len(x.Data); i += 3 { // sample input grads
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dx.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("sequential input grad [%d]: analytic %v numeric %v", i, dx.Data[i], num)
		}
	}
	m.ZeroGrads()
	_ = loss()
	m.Backward(R.Clone())
	for pi, p := range m.Params() {
		for j := 0; j < len(p.W.Data); j += 7 { // sample param grads
			orig := p.W.Data[j]
			p.W.Data[j] = orig + eps
			lp := loss()
			p.W.Data[j] = orig - eps
			lm := loss()
			p.W.Data[j] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-p.G.Data[j]) > tol*(1+math.Abs(num)) {
				t.Fatalf("sequential param %d grad [%d]: analytic %v numeric %v", pi, j, p.G.Data[j], num)
			}
		}
	}
}

package nn

import (
	"math"

	"deepqueuenet/internal/tensor"
)

// Inference path. Sequential.Infer is the one forward pass besides the
// training pair Forward/Backward: it (a) writes no layer caches, so a
// model can be shared read-only across goroutines, (b) takes every
// intermediate from a tensor.Arena, so a warmed arena runs a window
// with zero heap allocations, (c) runs every product on the packed
// blocked-GEMM kernels against a session's Packs, and (d) computes only
// the output rows its caller consumes.
//
// Row-range contract. A consumed output row depends on every input row
// through the row-mixing layers (recurrence, attention, pooling, custom
// layers), so layers up to and including the last of those see all T
// rows; the row-wise layers behind it (Dense, Activation, LayerNorm)
// see hi − lo rows; a model with no row-mixing layer is cut before its
// first layer. Attention, when it is that last layer, projects queries,
// scores, softmaxes and mixes only the consumed rows itself. Each
// surviving row keeps exactly its own operations in its own order — the
// kernels accumulate every output element on its own — so the range
// changes cost, never values: Infer(x, lo, hi) is rows [lo, hi) of
// Forward(x) to the bit (TestInferRowRangeBitwise, the golden traces).

// inferLayer is a built-in layer's cache-free, allocation-free forward
// pass over all rows of x.
type inferLayer interface {
	infer(x *tensor.Matrix, a *tensor.Arena, pk *Packs) *tensor.Matrix
}

// rowWise reports whether l maps each input row to the same output row
// on its own.
func rowWise(l Layer) bool {
	switch l.(type) {
	case *Dense, *Activation, *LayerNorm:
		return true
	}
	return false
}

// Infer returns rows [lo, hi) of Forward(x), bit for bit, as an
// (hi−lo)-row matrix backed by a and valid until a.Reset; copy it out
// to keep it. A model that pools to one row takes the range (0, 1).
// pk is the caller's weight-pack cache (packed on first use); neither
// it nor a may be shared across goroutines.
//
// Unlike Forward, Infer does not touch layer caches: when every layer
// is one of the built-in kinds, a single *Sequential may be shared by
// any number of goroutines each holding its own Arena and Packs. A
// custom Layer type falls back to its Forward (correct, but
// cache-writing — such a model must not be shared).
func (s *Sequential) Infer(x *tensor.Matrix, lo, hi int, a *tensor.Arena, pk *Packs) *tensor.Matrix {
	last := -1 // the last row-mixing layer
	for i, l := range s.Layers {
		if !rowWise(l) {
			last = i
		}
	}
	if last < 0 {
		x = a.Rows(x, lo, hi)
	}
	for i := 0; i < len(s.Layers); i++ {
		at := i
		switch l := s.Layers[i].(type) {
		case *Dense:
			y := a.NewMatrix(x.Rows, l.Out)
			tensor.MatMulPackedBiasActInto(y, x, pk.of(l.w), l.b.W, s.fusedAct(&i))
			x = y
		case *MultiHeadSelfAttention:
			if at == last {
				x = l.inferRows(x, lo, hi, s.fusedAct(&i), a, pk)
				continue // it took the range itself
			}
			x = l.inferRows(x, 0, x.Rows, s.fusedAct(&i), a, pk)
		case inferLayer:
			x = l.infer(x, a, pk)
		default:
			//dqnlint:allow hotalloc custom-Layer fallback: every built-in layer takes the arena infer path above; Forward's caches only run for user layer types, which the zero-alloc pins never ship
			x = l.Forward(x)
		}
		if at == last {
			x = a.Rows(x, lo, hi)
		}
	}
	return x
}

// fusedAct lets a layer that ends in a GEMM (Dense, attention) take a
// following Activation into that GEMM's epilogue, one pass over the
// output rows: if layer *i+1 is an Activation it returns its kind and
// advances *i past it.
func (s *Sequential) fusedAct(i *int) tensor.ActKind {
	if *i+1 < len(s.Layers) {
		if av, ok := s.Layers[*i+1].(*Activation); ok {
			*i++
			return av.actKind()
		}
	}
	return tensor.ActNone
}

// actKind maps the activation name to the fused-kernel enum.
func (a *Activation) actKind() tensor.ActKind {
	switch a.Kind {
	case "tanh":
		return tensor.ActTanh
	case "relu":
		return tensor.ActRelu
	case "sigmoid":
		return tensor.ActSigmoid
	}
	return tensor.ActNone
}

func (a *Activation) infer(x *tensor.Matrix, ar *tensor.Arena, _ *Packs) *tensor.Matrix {
	y := ar.NewMatrix(x.Rows, x.Cols)
	switch a.Kind {
	case "tanh":
		tensor.TanhSlice(y.Data, x.Data)
	case "sigmoid":
		tensor.SigmoidSlice(y.Data, x.Data)
	case "relu":
		for i, v := range x.Data {
			if v < 0 {
				v = 0
			}
			y.Data[i] = v
		}
	}
	return y
}

func (l *LSTM) infer(x *tensor.Matrix, a *tensor.Arena, pk *Packs) *tensor.Matrix {
	hs := a.NewMatrix(x.Rows, l.Hidden)
	l.inferInto(hs, 0, false, x, a, pk)
	return hs
}

// inferInto runs the recurrence over x — from the last row to the
// first when rev — and writes h_t into columns [col, col+Hidden) of
// out's row t. A BLSTM's two directions write the two halves of one
// output this way: no reversed copy of the input, none of the backward
// outputs, no concatenation.
func (l *LSTM) inferInto(out *tensor.Matrix, col int, rev bool, x *tensor.Matrix, a *tensor.Arena, pk *Packs) {
	T, H := x.Rows, l.Hidden
	// All four gate pre-activations for every timestep in one wide GEMM
	// (the i|f|o|g blocks are columns of the same 4H-wide weight).
	z := a.NewMatrix(T, 4*H)
	tensor.MatMulPackedInto(z, x, pk.of(l.wx))
	hPrev := a.AllocZero(H)
	c := a.AllocZero(H)
	bias := l.b.W.Data
	for s := 0; s < T; s++ {
		t := s
		if rev {
			t = T - 1 - s
		}
		zr := z.Row(t)
		tensor.AddVecMatInto(zr, hPrev, l.wh.W)
		h := out.Row(t)[col : col+H]
		GatesInto(zr, bias, c, h)
		hPrev = h
	}
}

func (b *BLSTM) infer(x *tensor.Matrix, a *tensor.Arena, pk *Packs) *tensor.Matrix {
	out := a.NewMatrix(x.Rows, 2*b.Hidden)
	b.fwd.inferInto(out, 0, false, x, a, pk)
	b.bwd.inferInto(out, b.Hidden, true, x, a, pk)
	return out
}

// inferRows is attention for output rows [lo, hi): queries only for
// those rows, keys and values for all T. Per head, scores = Q_h·K_hᵀ
// and context = softmax(scores)·V_h both run on the packed microkernels
// against per-window packs of K_hᵀ and V_h carved from the arena,
// reading Q_h out of q and writing the context into concat through the
// kernels' row strides. Every score and context element accumulates k
// ascending with one multiply and one add per term, as Forward's
// MatMulT/MatMul do (they skip zero multiplicands, which cannot change
// a finite sum's bits — see blocked.go), so the bits agree.
func (m *MultiHeadSelfAttention) inferRows(x *tensor.Matrix, lo, hi int, act tensor.ActKind, a *tensor.Arena, pk *Packs) *tensor.Matrix {
	T, R := x.Rows, hi-lo
	hk, hv := m.Heads*m.DK, m.Heads*m.DV
	q := a.NewMatrix(R, hk)
	tensor.MatMulPackedInto(q, a.Rows(x, lo, hi), pk.of(m.wq))
	kv := a.NewMatrix(T, hk+hv)
	tensor.MatMulPackedInto(kv, x, pk.kvOf(m))
	var kt, vp tensor.Packed
	ktBuf := a.Alloc(tensor.PackedLen(m.DK, T))
	vBuf := a.Alloc(tensor.PackedLen(T, m.DV))
	s := a.NewMatrix(R, T)
	concat := a.NewMatrix(R, hv)
	scale := 1 / math.Sqrt(float64(m.DK))
	for h := 0; h < m.Heads; h++ {
		kt.PackColsT(ktBuf, kv, h*m.DK, m.DK)
		tensor.MatMulPackedColsInto(s, 0, q, h*m.DK, &kt)
		s.Scale(scale)
		tensor.SoftmaxRows(s)
		vp.PackCols(vBuf, kv, hk+h*m.DV, m.DV)
		tensor.MatMulPackedColsInto(concat, h*m.DV, s, 0, &vp)
	}
	y := a.NewMatrix(R, m.Out)
	tensor.MatMulPackedBiasActInto(y, concat, pk.of(m.wo), m.bo.W, act)
	return y
}

func (t *TakeLast) infer(x *tensor.Matrix, a *tensor.Arena, _ *Packs) *tensor.Matrix {
	return a.Rows(x, x.Rows-1, x.Rows)
}

func (t *TakeAt) infer(x *tensor.Matrix, a *tensor.Arena, _ *Packs) *tensor.Matrix {
	i := max(0, min(t.Index, x.Rows-1))
	return a.Rows(x, i, i+1)
}

func (p *MeanPool) infer(x *tensor.Matrix, a *tensor.Arena, _ *Packs) *tensor.Matrix {
	out := a.NewMatrixZero(1, x.Cols)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			out.Data[j] += v
		}
	}
	out.Scale(1 / float64(x.Rows))
	return out
}

func (l *LayerNorm) infer(x *tensor.Matrix, a *tensor.Arena, _ *Packs) *tensor.Matrix {
	y := a.NewMatrix(x.Rows, x.Cols)
	for t := 0; t < x.Rows; t++ {
		row := x.Row(t)
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= float64(len(row))
		variance := 0.0
		for _, v := range row {
			d := v - mean
			variance += d * d
		}
		variance /= float64(len(row))
		inv := 1 / math.Sqrt(variance+lnEps)
		yr := y.Row(t)
		for j, v := range row {
			nrv := (v - mean) * inv
			yr[j] = nrv*l.gamma.W.Data[j] + l.beta.W.Data[j]
		}
	}
	return y
}

package nn

import (
	"fmt"
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
// through the row-mixing layers (BLSTM, attention, custom layers), so
// layers up to and including the last of those see all T rows; the
// row-wise layers behind it (Dense, Tanh) see hi − lo rows; a model
// with no row-mixing layer is cut before its first layer. Attention,
// when it is that last layer, projects queries, scores, softmaxes and
// mixes only the consumed rows itself. Each
// surviving row keeps exactly its own operations in its own order — the
// kernels accumulate every output element on its own — so the range
// changes cost, never values: Infer(x, lo, hi) is rows [lo, hi) of
// Forward(x) to the bit (TestInferRowRangeBitwise, the golden traces).
//
// Stream prefix. The same argument cuts the front of the model: the
// row-wise layers before the first row-mixing layer, and that layer's
// input projection z = x·Wx when it is a BLSTM, give each row
// a value that depends on that row alone. InferPrefix computes that
// prefix for any run of rows, InferWindow runs the rest of the model on
// a window of prefix rows, and Infer is the two over its own rows. A
// caller that slides overlapping windows over one long sequence (the
// PTM's port streams) computes the prefix once per sequence instead of
// once per window, and every output bit stays the same: a prefix row
// is the same arithmetic whichever window, batch or GEMM row block it
// is computed in.

// inferLayer is a built-in layer's cache-free, allocation-free forward
// pass over all rows of x.
type inferLayer interface {
	infer(x *tensor.Matrix, a *tensor.Arena, pk *Packs) *tensor.Matrix
}

// rowWise reports whether l maps each input row to the same output row
// on its own.
func rowWise(l Layer) bool {
	switch l.(type) {
	case *Dense, *Tanh:
		return true
	}
	return false
}

// split returns the index of the first row-mixing layer (len(Layers)
// when there is none) and of the last (−1 when there is none), and the
// first one when it is a BLSTM: its input projection z = x·Wx then ends
// the stream prefix (nil: the prefix is the row-wise layers' output
// alone).
func (s *Sequential) split() (first, last int, proj *BLSTM) {
	first, last = len(s.Layers), -1
	for i, l := range s.Layers {
		if !rowWise(l) {
			first, last = min(first, i), i
		}
	}
	if first < len(s.Layers) {
		proj, _ = s.Layers[first].(*BLSTM)
	}
	return first, last, proj
}

// PrefixCols returns the width of one stream-prefix row for in-wide
// input rows.
func (s *Sequential) PrefixCols(in int) int {
	first, _, proj := s.split()
	if proj != nil {
		return 8 * proj.Hidden
	}
	for _, l := range s.Layers[:first] {
		if d, ok := l.(*Dense); ok {
			in = d.Out
		}
	}
	return in
}

// InferPrefix writes the stream prefix of each row of x into the same
// row of dst, which must be x.Rows×PrefixCols(x.Cols). Scratch comes
// from a; dst may outlive a.Reset. Rows are independent, so a
// sequence's prefix may be computed in any row blocks.
func (s *Sequential) InferPrefix(dst, x *tensor.Matrix, a *tensor.Arena, pk *Packs) {
	first, _, proj := s.split()
	for i := 0; i < first; i++ {
		x = s.inferLayerAt(&i, x, 0, x.Rows, -1, a, pk)
	}
	if proj != nil {
		tensor.MatMulPackedInto(dst, x, pk.blstmOf(proj))
		return
	}
	if dst.Rows != x.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("nn: InferPrefix dst %dx%d, want %dx%d", dst.Rows, dst.Cols, x.Rows, x.Cols))
	}
	copy(dst.Data, x.Data)
}

// InferWindow returns rows [lo, hi) of the model's output on the T-row
// window whose row t is prefix row min(start+t, pre.Rows−1) — rows past
// the end of the sequence repeat its last row — bit for bit what Infer
// returns for that window's input rows. It reads pre and never writes
// it, so windows sharing prefix rows may run in any order, or
// concurrently with their own a and pk. The result is as Infer's.
func (s *Sequential) InferWindow(pre *tensor.Matrix, start, T, lo, hi int, a *tensor.Arena, pk *Packs) *tensor.Matrix {
	if start < 0 || T < 1 || pre.Rows < 1 {
		panic(fmt.Sprintf("nn: InferWindow window of %d rows from row %d of %d prefix rows", T, start, pre.Rows))
	}
	first, last, proj := s.split()
	var x *tensor.Matrix
	if proj != nil {
		x = proj.recur(pre, start, T, a)
		if first == last {
			x = a.Rows(x, lo, hi)
		}
		first++
	} else {
		if start+T <= pre.Rows {
			x = a.Rows(pre, start, start+T)
		} else {
			x = a.NewMatrix(T, pre.Cols)
			for t := 0; t < T; t++ {
				copy(x.Row(t), pre.Row(min(start+t, pre.Rows-1)))
			}
		}
		if last < 0 {
			return a.Rows(x, lo, hi)
		}
	}
	for i := first; i < len(s.Layers); i++ {
		x = s.inferLayerAt(&i, x, lo, hi, last, a, pk)
	}
	return x
}

// Infer returns rows [lo, hi) of Forward(x), bit for bit, as an
// (hi−lo)-row matrix backed by a and valid until a.Reset; copy it out
// to keep it. pk is the caller's weight-pack cache (packed on first
// use); neither it nor a may be shared across goroutines.
//
// Unlike Forward, Infer does not touch layer caches: when every layer
// is one of the built-in kinds, a single *Sequential may be shared by
// any number of goroutines each holding its own Arena and Packs. A
// custom Layer type falls back to its Forward (correct, but
// cache-writing — such a model must not be shared).
func (s *Sequential) Infer(x *tensor.Matrix, lo, hi int, a *tensor.Arena, pk *Packs) *tensor.Matrix {
	if _, last, _ := s.split(); last < 0 {
		x, hi, lo = a.Rows(x, lo, hi), hi-lo, 0
	}
	pre := a.NewMatrix(x.Rows, s.PrefixCols(x.Cols))
	s.InferPrefix(pre, x, a, pk)
	return s.InferWindow(pre, 0, x.Rows, lo, hi, a, pk)
}

// inferLayerAt runs layer *i over x and returns its output; at the last
// row-mixing layer (index last) the output is cut to rows [lo, hi). A
// layer that takes a following Tanh into its GEMM advances *i past it.
func (s *Sequential) inferLayerAt(i *int, x *tensor.Matrix, lo, hi, last int, a *tensor.Arena, pk *Packs) *tensor.Matrix {
	at := *i
	switch l := s.Layers[at].(type) {
	case *Dense:
		y := a.NewMatrix(x.Rows, l.Out)
		tensor.MatMulPackedBiasActInto(y, x, pk.of(l.w), l.b.W, s.fusedAct(i))
		return y
	case *MultiHeadSelfAttention:
		if at == last {
			return l.inferRows(x, lo, hi, s.fusedAct(i), a, pk) // it takes the range itself
		}
		x = l.inferRows(x, 0, x.Rows, s.fusedAct(i), a, pk)
	case inferLayer:
		x = l.infer(x, a, pk)
	default:
		x = l.Forward(x)
	}
	if at == last {
		x = a.Rows(x, lo, hi)
	}
	return x
}

// fusedAct lets a layer that ends in a GEMM (Dense, attention) take a
// following Tanh into that GEMM's epilogue, one pass over the output
// rows: if layer *i+1 is a Tanh it returns ActTanh and advances *i past
// it.
func (s *Sequential) fusedAct(i *int) tensor.ActKind {
	if *i+1 < len(s.Layers) {
		if _, ok := s.Layers[*i+1].(*Tanh); ok {
			*i++
			return tensor.ActTanh
		}
	}
	return tensor.ActNone
}

func (a *Tanh) infer(x *tensor.Matrix, ar *tensor.Arena, _ *Packs) *tensor.Matrix {
	y := ar.NewMatrix(x.Rows, x.Cols)
	tensor.TanhSlice(y.Data, x.Data)
	return y
}

// recurInto runs the recurrence over a T-row window — from the last row
// to the first when rev — and writes h_t into columns [col, col+Hidden)
// of out's row t. Step t's gate pre-activations are the 4·Hidden
// columns of z from zc in row min(start+t, z.Rows−1) (the i|f|o|g
// blocks are columns of one 4H-wide weight, so one GEMM made them all);
// each step copies that row into its own scratch before the recurrent
// product and the gates consume it, so z is never written. A BLSTM's
// two directions write the two halves of one output this way: no
// reversed copy of the input, none of the backward outputs, no
// concatenation.
func (l *LSTM) recurInto(out *tensor.Matrix, col int, rev bool, z *tensor.Matrix, zc, start, T int, a *tensor.Arena) {
	H := l.Hidden
	zs := a.Alloc(4 * H)
	hPrev := a.AllocZero(H)
	c := a.AllocZero(H)
	bias := l.b.W.Data
	for s := 0; s < T; s++ {
		t := s
		if rev {
			t = T - 1 - s
		}
		copy(zs, z.Row(min(start+t, z.Rows-1))[zc:zc+4*H])
		tensor.AddVecMatInto(zs, hPrev, l.wh.W)
		h := out.Row(t)[col : col+H]
		tensor.GatesInto(zs, bias, c, h)
		hPrev = h
	}
}

// recur runs both directions over the T-row window whose row t has the
// projection z row min(start+t, z.Rows−1): the forward LSTM's z in
// columns [0, 4H), the backward one's in [4H, 8H). It reads z and
// writes only its own arena scratch.
func (b *BLSTM) recur(z *tensor.Matrix, start, T int, a *tensor.Arena) *tensor.Matrix {
	out := a.NewMatrix(T, 2*b.Hidden)
	b.fwd.recurInto(out, 0, false, z, 0, start, T, a)
	b.bwd.recurInto(out, b.Hidden, true, z, 4*b.Hidden, start, T, a)
	return out
}

// infer is the BLSTM over all rows of x: both directions' input
// projections of every row in one GEMM, then the recurrence.
func (b *BLSTM) infer(x *tensor.Matrix, a *tensor.Arena, pk *Packs) *tensor.Matrix {
	z := a.NewMatrix(x.Rows, 8*b.Hidden)
	tensor.MatMulPackedInto(z, x, pk.blstmOf(b))
	return b.recur(z, 0, x.Rows, a)
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

package nn

import (
	"fmt"
	"math"

	"deepqueuenet/internal/tensor"
)

// Quantized inference backend: int8 weights (per-input-row absmax
// scales, tensor.QuantMat), float32 activations, and fast float32
// transcendentals. Built once from a trained Sequential by Quantize;
// the result is immutable and safe to share across goroutines (all
// per-inference scratch comes from the caller's ArenaF32). The exact
// float64 path stays the default — this backend is opt-in
// (ptm.WithQuantized / dqnet -quant) and its accuracy is gated by the
// committed golden-scenario thresholds rather than bit-identity.

// qLayer is one quantized layer's forward pass.
type qLayer interface {
	qinfer(x *tensor.MatrixF32, a *tensor.ArenaF32) *tensor.MatrixF32
}

// QuantSequential is an immutable quantized model.
type QuantSequential struct {
	layers []qLayer
	last   int // the last row-mixing layer (see Sequential.Infer), -1 if none
}

// Quantize builds the quantized form of s. It fails on custom layer
// types (only the built-in PTM layer kinds have quantized
// counterparts).
func Quantize(s *Sequential) (*QuantSequential, error) {
	qs := &QuantSequential{}
	for i := 0; i < len(s.Layers); i++ {
		switch l := s.Layers[i].(type) {
		case *Dense:
			// A following tanh folds into the dense kernel, like the
			// exact path's Dense+Tanh peephole.
			qs.layers = append(qs.layers, &qDense{out: l.Out, w: tensor.QuantizeMat(l.w.W),
				b: f32Row(l.b.W), act: s.fusedAct(&i)})
		case *Tanh:
			qs.layers = append(qs.layers, qTanh{})
		case *BLSTM:
			qs.layers = append(qs.layers, &qBLSTM{fwd: quantLSTM(l.fwd), bwd: quantLSTM(l.bwd)})
		case *MultiHeadSelfAttention:
			cat := tensor.ConcatCols(tensor.ConcatCols(l.wq.W, l.wk.W), l.wv.W)
			q := &qMHA{
				heads: l.Heads, dk: l.DK, dv: l.DV, out: l.Out,
				wqkv: tensor.QuantizeMat(cat),
				wo:   tensor.QuantizeMat(l.wo.W),
				bo:   f32Row(l.bo.W),
			}
			qs.layers = append(qs.layers, q)
		default:
			return nil, fmt.Errorf("nn: Quantize: no quantized form for layer type %T", l)
		}
	}
	qs.last = -1
	for i, l := range qs.layers {
		switch l.(type) {
		case *qDense, qTanh:
		default:
			qs.last = i
		}
	}
	return qs, nil
}

// f32Row converts a 1×N parameter matrix to a float32 slice.
func f32Row(m *tensor.Matrix) []float32 {
	out := make([]float32, len(m.Data))
	for i, v := range m.Data {
		out[i] = float32(v)
	}
	return out
}

func quantLSTM(l *LSTM) *qLSTM {
	return &qLSTM{
		hidden: l.Hidden,
		wx:     tensor.QuantizeMat(l.wx.W),
		wh:     tensor.QuantizeMat(l.wh.W),
		b:      f32Row(l.b.W),
	}
}

// Infer runs the quantized forward pass for output rows [lo, hi) under
// Sequential.Infer's row-range contract: the rows are those of the
// full-range result, bit for bit. The returned matrix is backed by a
// and valid until a.Reset. qs is immutable: concurrent callers each
// bring their own arena.
func (qs *QuantSequential) Infer(x *tensor.MatrixF32, lo, hi int, a *tensor.ArenaF32) *tensor.MatrixF32 {
	if qs.last < 0 {
		x = a.Rows(x, lo, hi)
	}
	for i, l := range qs.layers {
		if m, ok := l.(*qMHA); ok && i == qs.last {
			x = m.qinferRows(x, lo, hi, a)
			continue // it took the range itself
		}
		x = l.qinfer(x, a)
		if i == qs.last {
			x = a.Rows(x, lo, hi)
		}
	}
	return x
}

type qDense struct {
	out int
	w   *tensor.QuantMat
	b   []float32
	act tensor.ActKind
}

func (d *qDense) qinfer(x *tensor.MatrixF32, a *tensor.ArenaF32) *tensor.MatrixF32 {
	y := a.NewMatrix(x.Rows, d.out)
	tensor.QMatMulBiasActInto(y, x, d.w, d.b, d.act)
	return y
}

type qTanh struct{}

func (qTanh) qinfer(x *tensor.MatrixF32, a *tensor.ArenaF32) *tensor.MatrixF32 {
	y := a.NewMatrix(x.Rows, x.Cols)
	copy(y.Data, x.Data)
	for i := 0; i < y.Rows; i++ {
		tensor.ApplyActF32(y.Row(i), tensor.ActTanh)
	}
	return y
}

// qLSTM is one direction of a qBLSTM.
type qLSTM struct {
	hidden int
	wx, wh *tensor.QuantMat
	b      []float32
}

// qinferInto is LSTM.recurInto over float32: the recurrence from either
// end, h_t written into columns [col, col+hidden) of out's row t.
func (l *qLSTM) qinferInto(out *tensor.MatrixF32, col int, rev bool, x *tensor.MatrixF32, a *tensor.ArenaF32) {
	T, H := x.Rows, l.hidden
	z := a.NewMatrix(T, 4*H)
	tensor.QMatMulInto(z, x, l.wx)
	hPrev := a.AllocZero(H)
	cPrev := a.AllocZero(H)
	for s := 0; s < T; s++ {
		t := s
		if rev {
			t = T - 1 - s
		}
		zr := z.Row(t)
		tensor.QAddVecMatInto(zr, hPrev, l.wh)
		hr := out.Row(t)[col : col+H]
		// Same structure as the exact path's tensor.GatesInto: bias add, the
		// three sigmoid blocks and the candidate tanh block through the
		// vectorized slice transcendentals, then the c/h combines.
		for j, bv := range l.b {
			zr[j] += bv
		}
		tensor.FastSigmoidSlice(zr[:3*H], zr[:3*H])
		tensor.FastTanhSlice(zr[3*H:], zr[3*H:])
		gi, gf, go_, gg := zr[:H], zr[H:2*H], zr[2*H:3*H], zr[3*H:]
		for k := 0; k < H; k++ {
			cPrev[k] = gf[k]*cPrev[k] + gi[k]*gg[k]
		}
		tensor.FastTanhSlice(hr, cPrev)
		for k := 0; k < H; k++ {
			hr[k] *= go_[k]
		}
		hPrev = hr
	}
}

type qBLSTM struct{ fwd, bwd *qLSTM }

func (b *qBLSTM) qinfer(x *tensor.MatrixF32, a *tensor.ArenaF32) *tensor.MatrixF32 {
	out := a.NewMatrix(x.Rows, 2*b.fwd.hidden)
	b.fwd.qinferInto(out, 0, false, x, a)
	b.bwd.qinferInto(out, b.fwd.hidden, true, x, a)
	return out
}

type qMHA struct {
	heads, dk, dv, out int
	wqkv               *tensor.QuantMat
	wo                 *tensor.QuantMat
	bo                 []float32
}

func (m *qMHA) qinfer(x *tensor.MatrixF32, a *tensor.ArenaF32) *tensor.MatrixF32 {
	return m.qinferRows(x, 0, x.Rows, a)
}

// qinferRows is attention for output rows [lo, hi). The fused Q|K|V
// projection stays one GEMM over all T rows (the shape the committed
// quant gates were measured with); scores, softmax, context and the
// output projection run on the consumed rows only.
func (m *qMHA) qinferRows(x *tensor.MatrixF32, lo, hi int, a *tensor.ArenaF32) *tensor.MatrixF32 {
	T, R := x.Rows, hi-lo
	hk, hv := m.heads*m.dk, m.heads*m.dv
	qkv := a.NewMatrix(T, 2*hk+hv)
	tensor.QMatMulInto(qkv, x, m.wqkv)
	qrows := a.Rows(qkv, lo, hi)
	concat := a.NewMatrixZero(R, hv)
	scale := float32(1 / math.Sqrt(float64(m.dk)))
	qh := a.NewMatrix(R, m.dk)
	kh := a.NewMatrix(T, m.dk)
	vh := a.NewMatrix(T, m.dv)
	s := a.NewMatrix(R, T)
	oh := a.NewMatrix(R, m.dv)
	for h := 0; h < m.heads; h++ {
		tensor.ColSliceF32Into(qh, qrows, h*m.dk, (h+1)*m.dk)
		tensor.ColSliceF32Into(kh, qkv, hk+h*m.dk, hk+(h+1)*m.dk)
		tensor.ColSliceF32Into(vh, qkv, 2*hk+h*m.dv, 2*hk+(h+1)*m.dv)
		tensor.MatMulTF32Into(s, qh, kh)
		for i := range s.Data {
			s.Data[i] *= scale
		}
		tensor.SoftmaxRowsF32(s)
		tensor.MatMulF32Into(oh, s, vh)
		for i := 0; i < R; i++ {
			drow := concat.Row(i)
			for j, v := range oh.Row(i) {
				drow[h*m.dv+j] += v
			}
		}
	}
	y := a.NewMatrix(R, m.out)
	tensor.QMatMulBiasActInto(y, concat, m.wo, m.bo, tensor.ActNone)
	return y
}

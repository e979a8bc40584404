package nn

import (
	"math"

	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/tensor"
)

// LSTM is one direction of a BLSTM: a unidirectional long short-term
// memory mapping a T×In sequence to a T×Hidden sequence. Gate order
// within the 4·Hidden block is input (i), forget (f), output (o),
// candidate (g).
type LSTM struct {
	In, Hidden int
	wx, wh, b  *Param

	// Forward caches for BPTT.
	x                            *tensor.Matrix
	gi, gf, go_, gg, cs, tcs, hs *tensor.Matrix
}

// NewLSTM returns an LSTM with Xavier-initialized weights and forget-gate
// bias 1 (the standard trick to ease gradient flow early in training).
func NewLSTM(in, hidden int, r *rng.Rand) *LSTM {
	l := &LSTM{In: in, Hidden: hidden,
		wx: newParam("lstm.wx", in, 4*hidden),
		wh: newParam("lstm.wh", hidden, 4*hidden),
		b:  newParam("lstm.b", 1, 4*hidden)}
	xavierInit(l.wx.W, r)
	xavierInit(l.wh.W, r)
	for j := hidden; j < 2*hidden; j++ { // forget-gate bias
		l.b.W.Data[j] = 1
	}
	return l
}

func (l *LSTM) Forward(x *tensor.Matrix) *tensor.Matrix {
	T, H := x.Rows, l.Hidden
	l.x = x
	l.gi = tensor.New(T, H)
	l.gf = tensor.New(T, H)
	l.go_ = tensor.New(T, H)
	l.gg = tensor.New(T, H)
	l.cs = tensor.New(T, H)
	l.tcs = tensor.New(T, H)
	l.hs = tensor.New(T, H)

	z := tensor.MatMul(x, l.wx.W) // T × 4H
	hPrev := make([]float64, H)
	cPrev := make([]float64, H)
	whr := l.wh.W
	for t := 0; t < T; t++ {
		zr := z.Row(t)
		// z_t += h_{t-1}·Wh + b
		for k := 0; k < H; k++ {
			hv := hPrev[k]
			//dqnlint:allow floateq exact-zero sparsity skip: zero activations (t=0 state) contribute exactly nothing
			if hv == 0 {
				continue
			}
			wrow := whr.Row(k)
			for j := 0; j < 4*H; j++ {
				zr[j] += hv * wrow[j]
			}
		}
		for j := 0; j < 4*H; j++ {
			zr[j] += l.b.W.Data[j]
		}
		gi, gf, go_, gg := l.gi.Row(t), l.gf.Row(t), l.go_.Row(t), l.gg.Row(t)
		cr, tcr, hr := l.cs.Row(t), l.tcs.Row(t), l.hs.Row(t)
		for k := 0; k < H; k++ {
			gi[k] = tensor.Sigmoid(zr[k])
			gf[k] = tensor.Sigmoid(zr[H+k])
			go_[k] = tensor.Sigmoid(zr[2*H+k])
			gg[k] = math.Tanh(zr[3*H+k])
			cr[k] = gf[k]*cPrev[k] + gi[k]*gg[k]
			tcr[k] = math.Tanh(cr[k])
			hr[k] = go_[k] * tcr[k]
		}
		copy(hPrev, hr)
		copy(cPrev, cr)
	}
	return l.hs.Clone()
}

func (l *LSTM) Backward(dy *tensor.Matrix) *tensor.Matrix {
	T, H := l.x.Rows, l.Hidden
	dx := tensor.New(T, l.In)
	dh := make([]float64, H) // gradient flowing from t+1 into h_t
	dc := make([]float64, H)
	dz := make([]float64, 4*H)
	wx, wh := l.wx.W, l.wh.W
	for t := T - 1; t >= 0; t-- {
		gi, gf, go_, gg := l.gi.Row(t), l.gf.Row(t), l.go_.Row(t), l.gg.Row(t)
		tcr := l.tcs.Row(t)
		dyr := dy.Row(t)
		var cPrev []float64
		if t > 0 {
			cPrev = l.cs.Row(t - 1)
		}
		for k := 0; k < H; k++ {
			dhk := dyr[k] + dh[k]
			do := dhk * tcr[k]
			dck := dc[k] + dhk*go_[k]*(1-tcr[k]*tcr[k])
			di := dck * gg[k]
			dg := dck * gi[k]
			var df float64
			if t > 0 {
				df = dck * cPrev[k]
				dc[k] = dck * gf[k]
			} else {
				dc[k] = 0
			}
			dz[k] = di * gi[k] * (1 - gi[k])
			dz[H+k] = df * gf[k] * (1 - gf[k])
			dz[2*H+k] = do * go_[k] * (1 - go_[k])
			dz[3*H+k] = dg * (1 - gg[k]*gg[k])
		}
		// Parameter gradients.
		xr := l.x.Row(t)
		for i, xv := range xr {
			//dqnlint:allow floateq exact-zero sparsity skip: zero inputs (padded chunk tails) contribute exactly nothing
			if xv == 0 {
				continue
			}
			grow := l.wx.G.Row(i)
			for j := 0; j < 4*H; j++ {
				grow[j] += xv * dz[j]
			}
		}
		if t > 0 {
			hPrev := l.hs.Row(t - 1)
			for i, hv := range hPrev {
				//dqnlint:allow floateq exact-zero sparsity skip: zero activations (t=0 state) contribute exactly nothing
				if hv == 0 {
					continue
				}
				grow := l.wh.G.Row(i)
				for j := 0; j < 4*H; j++ {
					grow[j] += hv * dz[j]
				}
			}
		}
		for j := 0; j < 4*H; j++ {
			l.b.G.Data[j] += dz[j]
		}
		// Input and recurrent gradients.
		dxr := dx.Row(t)
		for i := range dxr {
			wrow := wx.Row(i)
			sum := 0.0
			for j := 0; j < 4*H; j++ {
				sum += wrow[j] * dz[j]
			}
			dxr[i] = sum
		}
		for k := 0; k < H; k++ {
			wrow := wh.Row(k)
			sum := 0.0
			for j := 0; j < 4*H; j++ {
				sum += wrow[j] * dz[j]
			}
			dh[k] = sum
		}
	}
	return dx
}

func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }

func (l *LSTM) Clone() *LSTM {
	c := &LSTM{In: l.In, Hidden: l.Hidden,
		wx: &Param{Name: l.wx.Name, W: l.wx.W.Clone(), G: tensor.New(l.In, 4*l.Hidden)},
		wh: &Param{Name: l.wh.Name, W: l.wh.W.Clone(), G: tensor.New(l.Hidden, 4*l.Hidden)},
		b:  &Param{Name: l.b.Name, W: l.b.W.Clone(), G: tensor.New(1, 4*l.Hidden)}}
	return c
}

// BLSTM is a bidirectional LSTM: a forward and a backward LSTM over the
// same input, outputs concatenated to T×(2·Hidden). This is the encoder
// cell the paper selects for the PTM (§5.2, "2-layer BLSTM").
type BLSTM struct {
	In, Hidden int
	fwd, bwd   *LSTM
}

// NewBLSTM returns a BLSTM layer.
func NewBLSTM(in, hidden int, r *rng.Rand) *BLSTM {
	return &BLSTM{In: in, Hidden: hidden, fwd: NewLSTM(in, hidden, r), bwd: NewLSTM(in, hidden, r)}
}

func (b *BLSTM) Forward(x *tensor.Matrix) *tensor.Matrix {
	yf := b.fwd.Forward(x)
	yb := b.bwd.Forward(tensor.ReverseRows(x))
	return tensor.ConcatCols(yf, tensor.ReverseRows(yb))
}

func (b *BLSTM) Backward(dy *tensor.Matrix) *tensor.Matrix {
	df, dbk := tensor.SplitCols(dy, b.Hidden)
	dxf := b.fwd.Backward(df)
	dxb := b.bwd.Backward(tensor.ReverseRows(dbk))
	dx := tensor.ReverseRows(dxb)
	tensor.AddInPlace(dx, dxf)
	return dx
}

func (b *BLSTM) Params() []*Param { return append(b.fwd.Params(), b.bwd.Params()...) }

func (b *BLSTM) Clone() Layer {
	return &BLSTM{In: b.In, Hidden: b.Hidden,
		fwd: b.fwd.Clone(), bwd: b.bwd.Clone()}
}

func (b *BLSTM) Spec() LayerSpec { return LayerSpec{Kind: "blstm", In: b.In, Hidden: b.Hidden} }

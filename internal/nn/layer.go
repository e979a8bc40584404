// Package nn is a small, dependency-free neural-network library with
// reverse-mode gradients, built for the paper's PTM architecture (Fig. 5):
// dense embeddings, stacked bidirectional LSTM encoders, multi-head
// self-attention, and an output head, trained with Adam on MSE loss.
//
// Sequences are tensor.Matrix values with one timestep per row. Layers are
// stateful across a Forward/Backward pair (they cache activations), so a
// layer instance must not be shared between goroutines; use Clone to create
// independent replicas for data-parallel training or concurrent inference.
package nn

import (
	"math"

	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/tensor"
)

// Param is one trainable parameter matrix with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Matrix
	G    *tensor.Matrix
}

func newParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols), G: tensor.New(rows, cols)}
}

// Layer is a differentiable sequence-to-sequence operator.
type Layer interface {
	// Forward consumes a T×In sequence and returns a T'×Out sequence,
	// caching whatever Backward will need.
	Forward(x *tensor.Matrix) *tensor.Matrix
	// Backward consumes the gradient with respect to the last Forward
	// output and returns the gradient with respect to its input,
	// accumulating parameter gradients.
	Backward(dy *tensor.Matrix) *tensor.Matrix
	// Params returns the layer's trainable parameters.
	Params() []*Param
	// Clone returns an independent deep copy (weights copied, caches empty).
	Clone() Layer
	// Spec describes the layer for serialization.
	Spec() LayerSpec
}

func xavierInit(m *tensor.Matrix, r *rng.Rand) {
	fanIn, fanOut := m.Rows, m.Cols
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = r.Uniform(-limit, limit)
	}
}

// Dense is a time-distributed affine layer: y_t = x_t·W + b.
type Dense struct {
	In, Out int
	w, b    *Param
	x       *tensor.Matrix // cache
}

// NewDense returns a Dense layer with Xavier-initialized weights.
func NewDense(in, out int, r *rng.Rand) *Dense {
	d := &Dense{In: in, Out: out, w: newParam("dense.w", in, out), b: newParam("dense.b", 1, out)}
	xavierInit(d.w.W, r)
	return d
}

func (d *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	d.x = x
	y := tensor.MatMul(x, d.w.W)
	for i := 0; i < y.Rows; i++ {
		row := y.Row(i)
		for j, bv := range d.b.W.Data {
			row[j] += bv
		}
	}
	return y
}

func (d *Dense) Backward(dy *tensor.Matrix) *tensor.Matrix {
	tensor.AddTMatMul(d.w.G, d.x, dy)
	for i := 0; i < dy.Rows; i++ {
		row := dy.Row(i)
		for j, v := range row {
			d.b.G.Data[j] += v
		}
	}
	return tensor.MatMulT(dy, d.w.W)
}

func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

func (d *Dense) Clone() Layer {
	c := &Dense{In: d.In, Out: d.Out,
		w: &Param{Name: d.w.Name, W: d.w.W.Clone(), G: tensor.New(d.In, d.Out)},
		b: &Param{Name: d.b.Name, W: d.b.W.Clone(), G: tensor.New(1, d.Out)}}
	return c
}

func (d *Dense) Spec() LayerSpec { return LayerSpec{Kind: "dense", In: d.In, Out: d.Out} }

// Activation applies an element-wise nonlinearity.
type Activation struct {
	Kind string // "tanh", "relu", or "sigmoid"
	y    *tensor.Matrix
}

// NewActivation returns an activation layer of the given kind.
func NewActivation(kind string) *Activation {
	switch kind {
	case "tanh", "relu", "sigmoid":
	default:
		panic("nn: unknown activation " + kind)
	}
	return &Activation{Kind: kind}
}

func (a *Activation) Forward(x *tensor.Matrix) *tensor.Matrix {
	y := x.Clone()
	switch a.Kind {
	case "tanh":
		y.Apply(math.Tanh)
	case "relu":
		y.Apply(func(v float64) float64 {
			if v < 0 {
				return 0
			}
			return v
		})
	case "sigmoid":
		y.Apply(tensor.Sigmoid)
	}
	a.y = y
	return y
}

func (a *Activation) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := dy.Clone()
	switch a.Kind {
	case "tanh":
		for i, v := range a.y.Data {
			dx.Data[i] *= 1 - v*v
		}
	case "relu":
		for i, v := range a.y.Data {
			if v <= 0 {
				dx.Data[i] = 0
			}
		}
	case "sigmoid":
		for i, v := range a.y.Data {
			dx.Data[i] *= v * (1 - v)
		}
	}
	return dx
}

func (a *Activation) Params() []*Param { return nil }
func (a *Activation) Clone() Layer     { return &Activation{Kind: a.Kind} }
func (a *Activation) Spec() LayerSpec  { return LayerSpec{Kind: "act:" + a.Kind} }

// TakeLast reduces a T×D sequence to its final timestep (1×D). It is the
// causal readout of the PTM: the window's last packet is the prediction
// target.
type TakeLast struct {
	rows, cols int
}

// NewTakeLast returns a TakeLast layer.
func NewTakeLast() *TakeLast { return &TakeLast{} }

func (t *TakeLast) Forward(x *tensor.Matrix) *tensor.Matrix {
	t.rows, t.cols = x.Rows, x.Cols
	out := tensor.New(1, x.Cols)
	copy(out.Row(0), x.Row(x.Rows-1))
	return out
}

func (t *TakeLast) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := tensor.New(t.rows, t.cols)
	copy(dx.Row(t.rows-1), dy.Row(0))
	return dx
}

func (t *TakeLast) Params() []*Param { return nil }
func (t *TakeLast) Clone() Layer     { return &TakeLast{} }
func (t *TakeLast) Spec() LayerSpec  { return LayerSpec{Kind: "takelast"} }

// TakeAt reduces a T×D sequence to the single timestep at Index (1×D):
// the centered readout used when the window straddles the target packet
// (bidirectional context).
type TakeAt struct {
	Index      int
	rows, cols int
}

// NewTakeAt returns a TakeAt layer reading out position index.
func NewTakeAt(index int) *TakeAt { return &TakeAt{Index: index} }

func (t *TakeAt) Forward(x *tensor.Matrix) *tensor.Matrix {
	t.rows, t.cols = x.Rows, x.Cols
	i := t.Index
	if i < 0 {
		i = 0
	}
	if i >= x.Rows {
		i = x.Rows - 1
	}
	out := tensor.New(1, x.Cols)
	copy(out.Row(0), x.Row(i))
	return out
}

func (t *TakeAt) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := tensor.New(t.rows, t.cols)
	i := t.Index
	if i < 0 {
		i = 0
	}
	if i >= t.rows {
		i = t.rows - 1
	}
	copy(dx.Row(i), dy.Row(0))
	return dx
}

func (t *TakeAt) Params() []*Param { return nil }
func (t *TakeAt) Clone() Layer     { return &TakeAt{Index: t.Index} }
func (t *TakeAt) Spec() LayerSpec  { return LayerSpec{Kind: "takeat", Index: t.Index} }

// MeanPool reduces a T×D sequence to the mean over timesteps (1×D).
type MeanPool struct {
	rows, cols int
}

// NewMeanPool returns a MeanPool layer.
func NewMeanPool() *MeanPool { return &MeanPool{} }

func (p *MeanPool) Forward(x *tensor.Matrix) *tensor.Matrix {
	p.rows, p.cols = x.Rows, x.Cols
	out := tensor.New(1, x.Cols)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			out.Data[j] += v
		}
	}
	out.Scale(1 / float64(x.Rows))
	return out
}

func (p *MeanPool) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := tensor.New(p.rows, p.cols)
	inv := 1 / float64(p.rows)
	for i := 0; i < p.rows; i++ {
		row := dx.Row(i)
		for j := range row {
			row[j] = dy.Data[j] * inv
		}
	}
	return dx
}

func (p *MeanPool) Params() []*Param { return nil }
func (p *MeanPool) Clone() Layer     { return &MeanPool{} }
func (p *MeanPool) Spec() LayerSpec  { return LayerSpec{Kind: "meanpool"} }

// LayerNorm normalizes each timestep's feature vector to zero mean and
// unit variance, then applies a learned affine transform — the
// Transformer-style stabilizer, useful between the encoder stacks when
// training deeper PTMs.
type LayerNorm struct {
	Dim         int
	gamma, beta *Param

	x      *tensor.Matrix // cache
	normed *tensor.Matrix
	invStd []float64
}

// NewLayerNorm returns a LayerNorm over dim features (γ=1, β=0).
func NewLayerNorm(dim int) *LayerNorm {
	l := &LayerNorm{Dim: dim,
		gamma: newParam("ln.gamma", 1, dim),
		beta:  newParam("ln.beta", 1, dim)}
	for i := range l.gamma.W.Data {
		l.gamma.W.Data[i] = 1
	}
	return l
}

const lnEps = 1e-6

func (l *LayerNorm) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.x = x
	l.normed = tensor.New(x.Rows, x.Cols)
	l.invStd = make([]float64, x.Rows)
	y := tensor.New(x.Rows, x.Cols)
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
		l.invStd[t] = inv
		nr := l.normed.Row(t)
		yr := y.Row(t)
		for j, v := range row {
			nr[j] = (v - mean) * inv
			yr[j] = nr[j]*l.gamma.W.Data[j] + l.beta.W.Data[j]
		}
	}
	return y
}

func (l *LayerNorm) Backward(dy *tensor.Matrix) *tensor.Matrix {
	n := float64(l.Dim)
	dx := tensor.New(dy.Rows, dy.Cols)
	for t := 0; t < dy.Rows; t++ {
		dyr := dy.Row(t)
		nr := l.normed.Row(t)
		// Parameter gradients.
		for j := range dyr {
			l.gamma.G.Data[j] += dyr[j] * nr[j]
			l.beta.G.Data[j] += dyr[j]
		}
		// dnormed = dy ⊙ γ; standard layer-norm input gradient:
		// dx = invStd/n · (n·dn − Σdn − normed·Σ(dn ⊙ normed)).
		sumDn, sumDnN := 0.0, 0.0
		dn := make([]float64, l.Dim)
		for j := range dyr {
			dn[j] = dyr[j] * l.gamma.W.Data[j]
			sumDn += dn[j]
			sumDnN += dn[j] * nr[j]
		}
		dxr := dx.Row(t)
		inv := l.invStd[t]
		for j := range dxr {
			dxr[j] = inv / n * (n*dn[j] - sumDn - nr[j]*sumDnN)
		}
	}
	return dx
}

func (l *LayerNorm) Params() []*Param { return []*Param{l.gamma, l.beta} }

func (l *LayerNorm) Clone() Layer {
	c := NewLayerNorm(l.Dim)
	c.gamma.W.CopyFrom(l.gamma.W)
	c.beta.W.CopyFrom(l.beta.W)
	return c
}

func (l *LayerNorm) Spec() LayerSpec { return LayerSpec{Kind: "layernorm", In: l.Dim} }

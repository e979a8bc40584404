// Package nn is a small, dependency-free neural-network library with
// reverse-mode gradients, built for the paper's PTM architecture (Fig. 5):
// dense embeddings, stacked bidirectional LSTM encoders, multi-head
// self-attention, and an output head, trained with Adam on MSE loss.
// It has exactly the four layer kinds that architecture and the RouteNet
// baseline use — "dense", "act:tanh", "blstm" and "mha" — each of which
// maps a T-row sequence to T rows.
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

// Tanh applies tanh element-wise: the one nonlinearity of the PTM's
// embedding and output head and of the RouteNet baseline.
type Tanh struct {
	y *tensor.Matrix
}

// NewTanh returns a tanh layer.
func NewTanh() *Tanh { return &Tanh{} }

func (a *Tanh) Forward(x *tensor.Matrix) *tensor.Matrix {
	y := x.Clone()
	y.Apply(math.Tanh)
	a.y = y
	return y
}

func (a *Tanh) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := dy.Clone()
	for i, v := range a.y.Data {
		dx.Data[i] *= 1 - v*v
	}
	return dx
}

func (a *Tanh) Params() []*Param { return nil }
func (a *Tanh) Clone() Layer     { return &Tanh{} }
func (a *Tanh) Spec() LayerSpec  { return LayerSpec{Kind: "act:tanh"} }

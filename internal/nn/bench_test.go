package nn

import (
	"fmt"
	"testing"

	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/tensor"
)

func benchModel() *Sequential {
	r := rng.New(1)
	return NewSequential(
		NewDense(15, 12, r),
		NewTanh(),
		NewBLSTM(12, 16, r),
		NewBLSTM(32, 10, r),
		NewMultiHeadSelfAttention(20, 16, 2, 8, 8, r),
		NewTanh(),
		NewDense(16, 1, r),
	)
}

func benchInput(rows int) *tensor.Matrix {
	r := rng.New(2)
	x := tensor.New(rows, 15)
	for i := range x.Data {
		x.Data[i] = r.Normal(0, 1)
	}
	return x
}

// BenchmarkForward measures one PTM-shaped forward pass over a 32-packet
// chunk (the inference unit of the simulator).
func BenchmarkForward(b *testing.B) {
	m := benchModel()
	x := benchInput(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*32), "ns/pkt")
}

// BenchmarkForwardBackward measures one training step on a chunk.
func BenchmarkForwardBackward(b *testing.B) {
	m := benchModel()
	x := benchInput(32)
	dy := tensor.New(32, 1)
	for i := range dy.Data {
		dy.Data[i] = 0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
		m.Backward(dy)
	}
}

// BenchmarkMatMul measures the core kernel at PTM-typical sizes.
func BenchmarkMatMul(b *testing.B) {
	r := rng.New(3)
	a := tensor.New(32, 32)
	c := tensor.New(32, 64)
	for i := range a.Data {
		a.Data[i] = r.Normal(0, 1)
	}
	for i := range c.Data {
		c.Data[i] = r.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(a, c)
	}
}

// BenchmarkGatesInto times one LSTM gate step at the trained model's
// widths: H = 16 (whole 4-lane groups) and H = 10 (a 2-element tail in
// each pass of the gate kernel, and i|f|o|g blocks that straddle
// groups). "narrow" pre-activations keep every
// |z| below tanh's 0.625 branch point; "wide" ones send most groups
// through the exp branch.
func BenchmarkGatesInto(b *testing.B) {
	for _, H := range []int{16, 10} {
		for _, in := range []struct {
			name  string
			scale float64
		}{{"narrow", 0.5}, {"wide", 4}} {
			b.Run(fmt.Sprintf("H=%d/%s", H, in.name), func(b *testing.B) {
				r := rng.New(4)
				zr0 := make([]float64, 4*H)
				bias := make([]float64, 4*H)
				c0 := make([]float64, H)
				for j := range zr0 {
					zr0[j] = r.Uniform(-in.scale, in.scale)
				}
				for k := range c0 {
					c0[k] = r.Uniform(-in.scale, in.scale)
				}
				zr := make([]float64, 4*H)
				c := make([]float64, H)
				h := make([]float64, H)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(zr, zr0)
					copy(c, c0)
					tensor.GatesInto(zr, bias, c, h)
				}
			})
		}
	}
}

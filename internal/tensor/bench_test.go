package tensor

import (
	"fmt"
	"testing"

	"deepqueuenet/internal/rng"
)

// BenchmarkAddVecMat times the LSTM recurrence row update h·Wh at the
// trained model's shapes: H = 16 (N = 4H = 64, whole four-panel blocks)
// and H = 10 (N = 40, four panels and one more).
func BenchmarkAddVecMat(b *testing.B) {
	for _, H := range []int{16, 10} {
		b.Run(fmt.Sprintf("H=%d", H), func(b *testing.B) {
			r := rng.New(6)
			w := randMat(r, H, 4*H)
			h := make([]float64, H)
			for k := range h {
				h[k] = r.Uniform(-1, 1)
			}
			dst := make([]float64, 4*H)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AddVecMatInto(dst, h, w)
			}
		})
	}
}

// BenchmarkSliceTranscendentals times the slice forms at the gate
// lengths of the trained model's two BLSTMs: 10 (two whole 4-lane
// groups and a 2-element tail) and 16 (four whole groups), on inputs in
// [-0.5, 0.5], where tanh never needs its exp branch.
func BenchmarkSliceTranscendentals(b *testing.B) {
	for _, op := range []struct {
		name string
		fn   func(dst, x []float64)
	}{{"Exp", ExpSlice}, {"Sigmoid", SigmoidSlice}, {"Tanh", TanhSlice}} {
		for _, n := range []int{10, 16} {
			b.Run(fmt.Sprintf("%s/n=%d", op.name, n), func(b *testing.B) {
				r := rng.New(8)
				x := make([]float64, n)
				for i := range x {
					x[i] = r.Uniform(-0.5, 0.5)
				}
				dst := make([]float64, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op.fn(dst, x)
				}
			})
		}
	}
}

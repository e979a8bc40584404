package difftest

import (
	"fmt"
	"math"
	"testing"

	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/tensor"
)

// TestGatesIntoMatchesReference gates the LSTM gate step: for every
// width H = 1…17 (whole 4-lane groups, every tail length, and blocks
// that straddle groups) and H = 33, tensor.GatesInto must produce the same
// cell and hidden state bits as the scalar reference, with the vector
// kernels both on and off. The inputs are narrow (every tanh lane on
// its polynomial branch), wide (exp branches, saturation, sigmoid lanes
// beyond the vector kernel's exact range, which must fall back whole),
// and spiced with ±0, subnormals, ±Inf and NaN in the pre-activations,
// the bias and the cell state. Bitwise identity is the strictest
// possible ULP budget (0 ULP) — the kernel reorders nothing per
// element, it only blocks the loops.
func TestGatesIntoMatchesReference(t *testing.T) {
	gateSpecials := []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, math.NaN(), math.Inf(1), math.Inf(-1)}
	withBackends(t, func(t *testing.T) {
		r := rng.New(404)
		widths := []int{33}
		for H := 1; H <= 17; H++ {
			widths = append(widths, H)
		}
		for _, H := range widths {
			for trial := 0; trial < 24; trial++ {
				zr := make([]float64, 4*H)
				bias := make([]float64, 4*H)
				c := make([]float64, H)
				h := make([]float64, H)
				span := 8.0
				switch trial % 4 {
				case 1:
					span = 0.25 // narrow
				case 2:
					span = 60 // saturating
				}
				for j := range zr {
					zr[j] = r.Uniform(-span, span)
					bias[j] = r.Uniform(-2, 2)
				}
				for k := range c {
					c[k] = r.Uniform(-3, 3)
				}
				switch trial % 8 {
				case 3:
					// Beyond the vector sigmoid's exact range: one lane.
					zr[r.Intn(3*H)] = r.Uniform(705, 800) * float64(1-2*r.Intn(2))
				case 7:
					for _, v := range [][]float64{zr, bias, c} {
						for j := range v {
							if r.Intn(4) == 0 {
								v[j] = gateSpecials[r.Intn(len(gateSpecials))]
							}
						}
					}
				}

				zrRef := append([]float64(nil), zr...)
				cRef := append([]float64(nil), c...)
				hRef := make([]float64, H)
				RefGates(zrRef, bias, cRef, hRef)

				tensor.GatesInto(zr, bias, c, h)
				label := fmt.Sprintf("GatesInto H=%d trial %d", H, trial)
				bitsEqualSlice(t, label+" c", c, cRef)
				bitsEqualSlice(t, label+" h", h, hRef)
			}
		}
	})
}

// TestQuantGateBudget bounds the quantized LSTM's gate math — the fast
// float32 sigmoid/tanh over the same block structure — against the
// float64 reference. This is the per-timestep error the end-to-end
// quant accuracy gates integrate over a whole stream.
func TestQuantGateBudget(t *testing.T) {
	r := rng.New(505)
	const H = 16
	for trial := 0; trial < 50; trial++ {
		zr := make([]float32, 4*H)
		zr64 := make([]float64, 4*H)
		for j := range zr {
			v := r.Uniform(-8, 8)
			zr[j] = float32(v)
			zr64[j] = float64(zr[j])
		}
		tensor.FastSigmoidSlice(zr[:3*H], zr[:3*H])
		tensor.FastTanhSlice(zr[3*H:], zr[3*H:])
		for j, v := range zr64 {
			var want float64
			if j < 3*H {
				want = 1 / (1 + math.Exp(-v))
			} else {
				want = math.Tanh(v)
			}
			if d := math.Abs(float64(zr[j]) - want); d > 1e-6 {
				t.Fatalf("quant gate elem %d (x=%g): abs err %.3g > 1e-6", j, v, d)
			}
		}
	}
}

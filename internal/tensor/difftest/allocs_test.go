package difftest

import (
	"testing"

	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/tensor"
)

// TestKernelsZeroSteadyStateAllocs pins the steady-state allocation
// count of every hot-path kernel at exactly zero: once destinations,
// packs, and quantized panels exist, a forward window must not touch
// the heap. A single stray alloc here multiplies by windows × devices ×
// IRSA iterations in a real run, so the pin is 0, not "small".
func TestKernelsZeroSteadyStateAllocs(t *testing.T) {
	r := rng.New(707)
	a := tensor.New(32, 20)
	b := tensor.New(20, 48)
	fillRand(r, a, false)
	fillRand(r, b, false)
	p := tensor.Pack(b)
	dst := tensor.New(32, 48)
	bias := tensor.New(1, 48)
	q := tensor.QuantizeMat(b)
	af := tensor.NewF32(32, 20)
	af.CopyFromF64(a)
	dstf := tensor.NewF32(32, 48)
	h := make([]float64, 20)
	acc := make([]float64, 48)
	hf := make([]float32, 20)
	accf := make([]float32, 48)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = r.Uniform(-5, 5)
	}
	ys := make([]float64, 4096)
	zr := make([]float64, 64)
	gb := make([]float64, 64)
	gc := make([]float64, 16)
	gh := make([]float64, 16)
	emb := tensor.New(32, 15)
	fillRand(r, emb, false)
	embW := tensor.New(15, 12)
	fillRand(r, embW, false)
	embP := tensor.Pack(embW)
	embDst := tensor.New(32, 12)
	zr10 := make([]float64, 40)
	gb10 := make([]float64, 40)
	gc10 := make([]float64, 10)
	gh10 := make([]float64, 10)
	scores := tensor.New(16, 32)
	fillRand(r, scores, false)
	dstT := tensor.New(32, 32)
	var kt tensor.Packed
	ktBuf := make([]float64, tensor.PackedLen(8, 32))
	bf := tensor.NewF32(20, 48)
	bf.CopyFromF64(b)
	dstTf := tensor.NewF32(32, 32)
	colf := tensor.NewF32(32, 8)

	pins := []struct {
		name string
		fn   func()
	}{
		{"MatMulInto", func() { tensor.MatMulInto(dst, a, b) }},
		{"MatMulPackedInto", func() { tensor.MatMulPackedInto(dst, a, p) }},
		{"MatMulPackedBiasActInto", func() { tensor.MatMulPackedBiasActInto(dst, a, p, bias, tensor.ActTanh) }},
		{"MatMulTInto", func() { tensor.MatMulTInto(dstT, a, a) }},
		{"AddVecMatInto", func() { tensor.AddVecMatInto(acc, h, b) }},
		{"PackFrom reuse", func() { p.PackFrom(b) }},
		{"PackColsT + MatMulPackedColsInto", func() {
			kt.PackColsT(ktBuf, a, 0, 8)
			tensor.MatMulPackedColsInto(dstT, 0, a, 8, &kt)
		}},
		{"ExpSlice", func() { tensor.ExpSlice(ys, xs) }},
		{"SigmoidSlice", func() { tensor.SigmoidSlice(ys, xs) }},
		{"TanhSlice", func() { tensor.TanhSlice(ys, xs) }},
		// Length 10 (the trained model's second BLSTM width) ends in a
		// 2-element remainder past the last full 4-lane group.
		{"ExpSlice remainder", func() { tensor.ExpSlice(ys[:10], xs[:10]) }},
		{"SigmoidSlice remainder", func() { tensor.SigmoidSlice(ys[:10], xs[:10]) }},
		{"TanhSlice remainder", func() { tensor.TanhSlice(ys[:10], xs[:10]) }},
		{"GatesInto", func() { tensor.GatesInto(zr, gb, gc, gh) }},
		{"GatesInto H=10", func() { tensor.GatesInto(zr10, gb10, gc10, gh10) }},
		{"MatMulPackedInto edge panel", func() { tensor.MatMulPackedInto(embDst, emb, embP) }},
		{"Scale", func() { scores.Scale(0.5) }},
		{"SoftmaxRows", func() { tensor.SoftmaxRows(scores) }},
		{"QMatMulInto", func() { tensor.QMatMulInto(dstf, af, q) }},
		{"QMatMulBiasActInto", func() { tensor.QMatMulBiasActInto(dstf, af, q, nil, tensor.ActTanh) }},
		{"QAddVecMatInto", func() { tensor.QAddVecMatInto(accf, hf, q) }},
		{"MatMulF32Into", func() { tensor.MatMulF32Into(dstf, af, bf) }},
		{"MatMulTF32Into", func() { tensor.MatMulTF32Into(dstTf, af, af) }},
		{"ColSliceF32Into", func() { tensor.ColSliceF32Into(colf, af, 4, 12) }},
	}
	for _, pin := range pins {
		pin := pin
		t.Run(pin.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(20, pin.fn); allocs != 0 {
				t.Fatalf("%s allocated %.1f times per run; want 0", pin.name, allocs)
			}
		})
	}
}

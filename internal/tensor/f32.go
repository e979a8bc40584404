package tensor

import "math"

// float32 counterparts of the Matrix/Arena machinery, used by the
// opt-in quantized inference backend (int8 weights, float32
// activations). The float64 path stays the default and keeps its
// bit-identity guarantees; everything here trades a bounded amount of
// precision for speed and is gated by the quant accuracy tests instead.

// MatrixF32 is a dense, row-major matrix of float32.
type MatrixF32 struct {
	Rows, Cols int
	Data       []float32
}

// NewF32 returns a zero float32 matrix with the given shape.
func NewF32(rows, cols int) *MatrixF32 {
	if rows < 0 || cols < 0 {
		panic("tensor: negative dimension")
	}
	return &MatrixF32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns a mutable view of row i.
func (m *MatrixF32) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// At returns the element at (i, j).
func (m *MatrixF32) At(i, j int) float64 { return float64(m.Data[i*m.Cols+j]) }

// CopyFromF64 fills m from a float64 matrix of the same shape.
func (m *MatrixF32) CopyFromF64(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("tensor: CopyFromF64 shape mismatch " + shapeStr(src))
	}
	for i, v := range src.Data {
		m.Data[i] = float32(v)
	}
}

// ArenaF32 is Arena for float32 scratch: grow-only slab, Reset reuse,
// zero steady-state allocations once warmed. Same contract, same
// non-goroutine-safety.
type ArenaF32 struct {
	slab []float32
	off  int
	want int

	hdrs []*MatrixF32
	nhdr int
}

// NewArenaF32 returns an empty float32 arena; the first cycle sizes it.
func NewArenaF32() *ArenaF32 { return &ArenaF32{} }

// Alloc returns an n-float scratch slice (uninitialized).
func (a *ArenaF32) Alloc(n int) []float32 {
	a.want += n
	if a.off+n <= len(a.slab) {
		s := a.slab[a.off : a.off+n : a.off+n]
		a.off += n
		return s
	}
	return make([]float32, n)
}

// AllocZero returns an n-float scratch slice with every element zero.
func (a *ArenaF32) AllocZero(n int) []float32 {
	s := a.Alloc(n)
	for i := range s {
		s[i] = 0
	}
	return s
}

func (a *ArenaF32) header() *MatrixF32 {
	if a.nhdr == len(a.hdrs) {
		a.hdrs = append(a.hdrs, &MatrixF32{})
	}
	a.nhdr++
	return a.hdrs[a.nhdr-1]
}

// NewMatrix returns a rows×cols matrix backed by the arena
// (uninitialized data).
func (a *ArenaF32) NewMatrix(rows, cols int) *MatrixF32 {
	m := a.header()
	m.Rows, m.Cols = rows, cols
	m.Data = a.Alloc(rows * cols)
	return m
}

// Rows returns rows [lo, hi) of m as a view sharing m's storage (see
// Arena.Rows).
func (a *ArenaF32) Rows(m *MatrixF32, lo, hi int) *MatrixF32 {
	if lo < 0 || lo > hi || hi > m.Rows {
		panic("tensor: ArenaF32.Rows range out of bounds")
	}
	v := a.header()
	v.Rows, v.Cols = hi-lo, m.Cols
	v.Data = m.Data[lo*m.Cols : hi*m.Cols : hi*m.Cols]
	return v
}

// NewMatrixZero returns a zeroed rows×cols matrix backed by the arena.
func (a *ArenaF32) NewMatrixZero(rows, cols int) *MatrixF32 {
	m := a.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// Reset reclaims every allocation of the current cycle, regrowing the
// slab to the observed demand if it overflowed.
func (a *ArenaF32) Reset() {
	if a.want > len(a.slab) {
		a.slab = make([]float32, a.want)
	}
	a.off = 0
	a.want = 0
	a.nhdr = 0
}

// --- float32 activation-side kernels (activations × activations) ---

// MatMulF32Into computes dst = a × b over float32 (used where both
// operands are activations, e.g. attention score × value).
func MatMulF32Into(dst, a, b *MatrixF32) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MatMulF32Into shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for j := range orow {
			orow[j] = 0
		}
		for k, av := range arow {
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulTF32Into computes dst = a × bᵀ over float32.
func MatMulTF32Into(dst, a, b *MatrixF32) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MatMulTF32Into shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var sum float32
			for k := range arow {
				sum += arow[k] * brow[k]
			}
			orow[j] = sum
		}
	}
}

// ColSliceF32Into copies columns [lo, hi) of src into dst.
func ColSliceF32Into(dst, src *MatrixF32, lo, hi int) {
	if lo < 0 || hi > src.Cols || lo > hi || dst.Rows != src.Rows || dst.Cols != hi-lo {
		panic("tensor: ColSliceF32Into shape mismatch")
	}
	for i := 0; i < src.Rows; i++ {
		copy(dst.Row(i), src.Row(i)[lo:hi])
	}
}

// SoftmaxRowsF32 applies softmax to each row in place, using the fast
// float32 exponential.
func SoftmaxRowsF32(m *MatrixF32) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		maxv := float32(math.Inf(-1))
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		for j, v := range row {
			row[j] = v - maxv
		}
		FastExpSlice(row, row)
		var sum float32
		for _, e := range row {
			sum += e
		}
		if sum > 0 {
			for j := range row {
				row[j] /= sum
			}
		}
	}
}

// --- fast float32 transcendentals ---
//
// The quantized path's speed comes as much from these as from the int8
// weights: the exact float64 path spends about a third of its time in
// math.Exp/math.Tanh. FastExp32 is a range-reduced polynomial (2^n ·
// e^z with |z| ≤ ln2/2, degree-6 Taylor evaluated by Horner) whose
// relative error stays within a few float32 ULP — small against the
// int8 weight quantization error the accuracy gates already budget for.

// FastExpSlice computes dst[i] = e^x[i] (fast float32 flavor). On
// amd64 with AVX2+FMA the bulk runs 8 lanes at a time
// (vecmath_amd64.s); the vector and scalar forms may differ by a couple
// of low-order ULPs, which the quant accuracy gates budget for. dst may
// alias x exactly.
func FastExpSlice(dst, x []float32) {
	if len(dst) != len(x) {
		panic("tensor: FastExpSlice length mismatch")
	}
	i := 0
	if useVecKernels {
		i = vexpf8(dst, x)
	}
	for ; i < len(x); i++ {
		dst[i] = FastExp32(x[i])
	}
}

// FastSigmoidSlice computes dst[i] = 1/(1+e^-x[i]), fast float32
// flavor; same vectorization and aliasing contract as FastExpSlice.
func FastSigmoidSlice(dst, x []float32) {
	if len(dst) != len(x) {
		panic("tensor: FastSigmoidSlice length mismatch")
	}
	i := 0
	if useVecKernels {
		i = vsigmoidf8(dst, x)
	}
	for ; i < len(x); i++ {
		dst[i] = FastSigmoid32(x[i])
	}
}

// FastTanhSlice computes dst[i] = tanh(x[i]), fast float32 flavor; same
// vectorization and aliasing contract as FastExpSlice.
func FastTanhSlice(dst, x []float32) {
	if len(dst) != len(x) {
		panic("tensor: FastTanhSlice length mismatch")
	}
	i := 0
	if useVecKernels {
		i = vtanhf8(dst, x)
	}
	for ; i < len(x); i++ {
		dst[i] = FastTanh32(x[i])
	}
}

// FastExp32 returns e^x with ~1e-7 relative error.
func FastExp32(x float32) float32 {
	if x != x { // NaN
		return x
	}
	if x > 88.5 {
		return float32(math.Inf(1))
	}
	if x < -87.0 {
		return 0
	}
	t := x * 1.4426950408889634 // x/ln2
	var n float32
	if t >= 0 {
		n = float32(int32(t + 0.5))
	} else {
		n = float32(int32(t - 0.5))
	}
	z := (t - n) * 0.6931471805599453 // |z| ≤ ln2/2
	p := 1 + z*(1+z*(0.5+z*(1.0/6+z*(1.0/24+z*(1.0/120+z*(1.0/720))))))
	// Scale by 2^n: n is a small integer, add it to the exponent field.
	return math.Float32frombits(math.Float32bits(p) + uint32(int32(n))<<23)
}

// FastTanh32 returns tanh(x) via FastExp32.
func FastTanh32(x float32) float32 {
	if x != x {
		return x
	}
	if x > 9 {
		return 1
	}
	if x < -9 {
		return -1
	}
	e := FastExp32(2 * x)
	return (e - 1) / (e + 1)
}

// FastSigmoid32 returns 1/(1+e^-x) via FastExp32.
func FastSigmoid32(x float32) float32 {
	return 1 / (1 + FastExp32(-x))
}

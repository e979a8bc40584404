package tensor

// Packed is a weight matrix repacked into contiguous column panels for
// the blocked GEMM kernels. The K×N source is split into ⌈N/8⌉ panels
// of 8 columns; panel pi stores its K rows contiguously, so element
// (k, pi*8+lane) lives at data[pi*K*8 + k*8 + lane]. Columns past N in
// the last panel are zero-padded — the kernels compute those lanes but
// never store them.
//
// Packing is a pure relayout: the blocked kernels read the same values
// in the same per-output-element order (k ascending) as the direct
// kernels, so packed and unpacked matmuls are bit-identical.
//
// A Packed is immutable after PackFrom and safe to share across
// goroutines; it must be rebuilt if the source weights change.
type Packed struct {
	K, N int
	data []float64
}

// Pack returns b repacked into 8-wide column panels.
func Pack(b *Matrix) *Packed {
	p := &Packed{}
	p.PackFrom(b)
	return p
}

// PackedLen is the panel-buffer length of a K×N pack.
func PackedLen(k, n int) int { return (n + 7) / 8 * k * 8 }

// PackFrom repacks b into p, reusing p's backing storage when it is
// large enough.
func (p *Packed) PackFrom(b *Matrix) {
	need := PackedLen(b.Rows, b.Cols)
	if cap(p.data) < need {
		p.data = make([]float64, need)
	}
	p.PackCols(p.data[:need], b, 0, b.Cols)
}

// PackCols packs columns [c0, c0+n) of src — a src.Rows×n operand —
// into buf, which must be PackedLen(src.Rows, n) long and backs p from
// here on. It is the per-window form: buf is arena scratch and p a
// stack header, so packing an activation block allocates nothing.
func (p *Packed) PackCols(buf []float64, src *Matrix, c0, n int) {
	K := src.Rows
	if c0 < 0 || n < 0 || c0+n > src.Cols || len(buf) != PackedLen(K, n) {
		panic("tensor: PackCols column range or buffer length")
	}
	p.K, p.N, p.data = K, n, buf
	for lo := 0; lo < n; lo += 8 {
		w := min(8, n-lo)
		panel := buf[lo*K : (lo+8)*K]
		for k := 0; k < K; k++ {
			dst := panel[k*8 : k*8+8]
			copy(dst, src.Data[k*src.Cols+c0+lo:][:w])
			clear(dst[w:])
		}
	}
}

// PackColsT packs the transpose of columns [c0, c0+k) of src — a
// k×src.Rows operand — so that an a × bᵀ product (attention's Q·Kᵀ)
// runs on the packed kernels. buf as in PackCols.
func (p *Packed) PackColsT(buf []float64, src *Matrix, c0, k int) {
	n := src.Rows
	if c0 < 0 || k < 0 || c0+k > src.Cols || len(buf) != PackedLen(k, n) {
		panic("tensor: PackColsT column range or buffer length")
	}
	p.K, p.N, p.data = k, n, buf
	if k == 0 {
		return
	}
	for j := 0; j < (n+7)/8*8; j++ { // one lane per source row, zero-padded to whole panels
		lane := buf[(j/8)*k*8+j%8:]
		if j >= n {
			for kk := 0; kk < k; kk++ {
				lane[kk*8] = 0
			}
			continue
		}
		for kk, v := range src.Data[j*src.Cols+c0:][:k] {
			lane[kk*8] = v
		}
	}
}

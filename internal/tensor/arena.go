package tensor

// Arena is a grow-only scratch allocator for inference temporaries.
// Alloc hands out disjoint sub-slices of one backing slab; Reset makes
// the whole slab reusable again without returning memory to the GC. A
// warmed arena (one that has seen its peak demand) satisfies every
// subsequent cycle with zero heap allocations — the property the
// allocation-regression tests pin.
//
// Contract:
//   - Values handed out are valid only until the next Reset. Callers
//     that need a result to outlive the cycle must copy it out.
//   - Alloc'd memory is NOT zeroed (it recycles prior cycles' bytes);
//     use AllocZero / NewMatrixZero when the kernel accumulates.
//   - An Arena is not goroutine-safe. Use one per worker.
type Arena struct {
	slab []float64
	off  int
	want int // total floats requested this cycle, to size the next slab

	hdrs []*Matrix // reusable Matrix headers
	nhdr int
}

// NewArena returns an empty arena; the first cycle sizes it.
func NewArena() *Arena { return &Arena{} }

// Alloc returns an n-float scratch slice (uninitialized: it may hold
// bytes from earlier cycles).
func (a *Arena) Alloc(n int) []float64 {
	a.want += n
	if a.off+n <= len(a.slab) {
		s := a.slab[a.off : a.off+n : a.off+n]
		a.off += n
		return s
	}
	// Slab exhausted: overflow allocation, consolidated at next Reset.
	return make([]float64, n)
}

// AllocZero returns an n-float scratch slice with every element zero.
func (a *Arena) AllocZero(n int) []float64 {
	s := a.Alloc(n)
	for i := range s {
		s[i] = 0
	}
	return s
}

// header returns a recycled Matrix header.
func (a *Arena) header() *Matrix {
	if a.nhdr == len(a.hdrs) {
		a.hdrs = append(a.hdrs, &Matrix{})
	}
	a.nhdr++
	return a.hdrs[a.nhdr-1]
}

// NewMatrix returns a rows×cols matrix backed by the arena. Its data is
// uninitialized; kernels that fully overwrite their destination (the
// *Into family) can use it directly, accumulating kernels should use
// NewMatrixZero.
func (a *Arena) NewMatrix(rows, cols int) *Matrix {
	m := a.header()
	m.Rows, m.Cols = rows, cols
	m.Data = a.Alloc(rows * cols)
	return m
}

// Rows returns rows [lo, hi) of m as a matrix sharing m's storage (a
// view, valid as long as m and until Reset): how inference narrows a
// window to the rows its caller consumes without copying them.
func (a *Arena) Rows(m *Matrix, lo, hi int) *Matrix {
	if lo < 0 || lo > hi || hi > m.Rows {
		panic("tensor: Arena.Rows range " + dimStr(lo, hi) + " of " + shapeStr(m))
	}
	v := a.header()
	v.Rows, v.Cols = hi-lo, m.Cols
	v.Data = m.Data[lo*m.Cols : hi*m.Cols : hi*m.Cols]
	return v
}

// NewMatrixZero returns a zeroed rows×cols matrix backed by the arena.
func (a *Arena) NewMatrixZero(rows, cols int) *Matrix {
	m := a.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// Reset reclaims every allocation of the current cycle. If the cycle
// overflowed the slab, the slab is regrown to the full observed demand
// so the next cycle runs allocation-free.
func (a *Arena) Reset() {
	if a.want > len(a.slab) {
		a.slab = make([]float64, a.want)
	}
	a.off = 0
	a.want = 0
	a.nhdr = 0
}

// Cap returns the slab capacity in floats (diagnostics).
func (a *Arena) Cap() int { return len(a.slab) }

package tensor

import "math"

// In-place kernel variants. Each *Into writes its full destination (no
// stale bytes survive), so destinations may come straight from
// Arena.NewMatrix without zeroing. The matmul family runs on the
// blocked kernels (blocked.go): each output element still accumulates
// its k terms in ascending order, but zero multiplicands are no longer
// skipped. For finite weights that is bit-identical to both the
// historical skip kernels and the allocating variants — the golden-
// trace and differential tests depend on that.
//
// Aliasing: destinations that share a backing array with an input are
// rejected with a panic ("tensor: ... aliases ..."). The check compares
// the first backing element, which catches dst == src exactly; partial
// overlap of hand-built sub-slices is the caller's responsibility
// (Arena allocations never overlap).

// aliases reports whether two matrices share their first backing element.
func aliases(a, b *Matrix) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

func checkNoAlias(op string, dst, a, b *Matrix) {
	if aliases(dst, a) || (b != nil && aliases(dst, b)) {
		panic("tensor: " + op + " destination aliases an input")
	}
}

// ActKind selects the fused activation of MatMulPackedBiasActInto.
type ActKind uint8

// Fused activation kinds.
const (
	ActNone ActKind = iota
	ActTanh
)

// Sigmoid is the logistic function 1/(1+e^-v), shared by SigmoidSlice
// and internal/nn's LSTM training pass so both round identically.
func Sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

func applyAct(row []float64, act ActKind) {
	if act == ActTanh {
		TanhSlice(row, row)
	}
}

// MatMulInto computes dst = a × b. dst must be a.Rows×b.Cols and must
// not alias a or b.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(shapeErr("MatMulInto", a, b))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(shapeErr("MatMulInto dst", dst, b))
	}
	checkNoAlias("MatMulInto", dst, a, b)
	matMulDirect(dst, a, b)
}

// MatMulPackedInto computes dst = a × b where b was repacked with Pack
// (p.K must equal a.Cols). dst must be a.Rows×p.N and must not alias a
// or the pack. This is the session hot path: the pack is built once per
// weight matrix and reused across windows, and on amd64 the inner
// kernel is AVX2 assembly. Bit-identical to MatMulInto.
func MatMulPackedInto(dst, a *Matrix, p *Packed) {
	if a.Cols != p.K {
		panic("tensor: MatMulPackedInto shapes " + shapeStr(a) + " and packed " + dimStr(p.K, p.N))
	}
	if dst.Rows != a.Rows || dst.Cols != p.N {
		panic("tensor: MatMulPackedInto dst " + shapeStr(dst) + " want " + dimStr(a.Rows, p.N))
	}
	if aliases(dst, a) || (len(dst.Data) > 0 && len(p.data) > 0 && &dst.Data[0] == &p.data[0]) {
		panic("tensor: MatMulPackedInto destination aliases an input")
	}
	matMulPacked(dst.Data, p.N, a.Data, p.K, a.Rows, p)
}

// MatMulPackedColsInto computes dst[:, dc:dc+p.N] = a[:, ac:ac+p.K] × p:
// a column block of a times a packed operand, written to a column
// block of dst, every other column of dst left as it was. Attention
// reads one head's queries out of the joint projection and writes that
// head's context into the concatenated output this way, slicing
// neither. dst must have a.Rows rows and must not alias a or the pack.
func MatMulPackedColsInto(dst *Matrix, dc int, a *Matrix, ac int, p *Packed) {
	if ac < 0 || ac+p.K > a.Cols || dc < 0 || dc+p.N > dst.Cols || dst.Rows != a.Rows {
		panic("tensor: MatMulPackedColsInto blocks " + shapeStr(a) + " × packed " + dimStr(p.K, p.N) + " into " + shapeStr(dst))
	}
	if aliases(dst, a) || (len(dst.Data) > 0 && len(p.data) > 0 && &dst.Data[0] == &p.data[0]) {
		panic("tensor: MatMulPackedColsInto destination aliases an input")
	}
	if a.Rows > 0 {
		matMulPacked(dst.Data[dc:], dst.Cols, a.Data[ac:], a.Cols, a.Rows, p)
	}
}

// MatMulPackedBiasActInto computes dst = act(a × w + bias) with a packed
// weight matrix, the fused time-distributed dense forward: one pass adds
// the 1×Out bias to each output row of the matmul and applies the
// activation — no intermediate matrices. bias may be nil (no bias).
func MatMulPackedBiasActInto(dst, a *Matrix, p *Packed, bias *Matrix, act ActKind) {
	if a.Cols != p.K {
		panic("tensor: MatMulPackedBiasActInto shapes " + shapeStr(a) + " and packed " + dimStr(p.K, p.N))
	}
	if dst.Rows != a.Rows || dst.Cols != p.N {
		panic("tensor: MatMulPackedBiasActInto dst " + shapeStr(dst) + " want " + dimStr(a.Rows, p.N))
	}
	if bias != nil && (bias.Rows != 1 || bias.Cols != p.N) {
		panic("tensor: MatMulPackedBiasActInto bias " + shapeStr(bias) + " want " + dimStr(1, p.N))
	}
	if aliases(dst, a) || (len(dst.Data) > 0 && len(p.data) > 0 && &dst.Data[0] == &p.data[0]) {
		panic("tensor: MatMulPackedBiasActInto destination aliases an input")
	}
	matMulPacked(dst.Data, p.N, a.Data, p.K, a.Rows, p)
	for i := 0; i < dst.Rows; i++ {
		orow := dst.Row(i)
		if bias != nil {
			for j, bv := range bias.Data {
				orow[j] += bv
			}
		}
		applyAct(orow, act)
	}
}

// AddVecMatInto computes dst += h × w, a 1×H row vector times an H×N
// matrix accumulated into an N-wide destination row — the per-timestep
// LSTM recurrence update. dst must not alias h or w's storage.
func AddVecMatInto(dst, h []float64, w *Matrix) {
	if w.Rows != len(h) {
		panic("tensor: AddVecMatInto h length " + dimStr(len(h), w.Rows))
	}
	if w.Cols != len(dst) {
		panic("tensor: AddVecMatInto dst length " + dimStr(len(dst), w.Cols))
	}
	if len(dst) > 0 && len(w.Data) > 0 && &dst[0] == &w.Data[0] {
		panic("tensor: AddVecMatInto destination aliases an input")
	}
	if len(dst) > 0 && len(h) > 0 && &dst[0] == &h[0] {
		panic("tensor: AddVecMatInto destination aliases the input vector")
	}
	addVecMat(dst, h, w)
}

// MatMulTInto computes dst = a × bᵀ. dst must be a.Rows×b.Rows and must
// not alias a or b.
func MatMulTInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(shapeErr("MatMulTInto", a, b))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(shapeErr("MatMulTInto dst", dst, b))
	}
	checkNoAlias("MatMulTInto", dst, a, b)
	K := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		// Four b rows per pass share each arow load; every dot product
		// still accumulates k ascending, so per-element rounding is
		// unchanged.
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0 := b.Data[j*K : j*K+K]
			b1 := b.Data[(j+1)*K : (j+1)*K+K]
			b2 := b.Data[(j+2)*K : (j+2)*K+K]
			b3 := b.Data[(j+3)*K : (j+3)*K+K]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			brow := b.Row(j)
			sum := 0.0
			for k := range arow {
				sum += arow[k] * brow[k]
			}
			orow[j] = sum
		}
	}
}

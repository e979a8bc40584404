package difftest

import (
	"math"
	"testing"

	"deepqueuenet/internal/linalg"
	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/tensor"
)

// TestLinalgTensorParity pins the cross-package numeric contract: the
// nested-slice linalg.Mul (which skips exact-zero a terms) and the flat
// blocked tensor.MatMulInto (which never skips) must agree bit for bit
// on finite inputs — the "+0 accumulator absorbs ±0 terms" argument in
// blocked.go, proven over random shapes with exact zeros and -0
// sprinkled in. linalg serves the MAP fits and the LDQBD solver, while
// training and inference run on nn/tensor; this sweep is what keeps
// one product meaning the same bits in both.
func TestLinalgTensorParity(t *testing.T) {
	withBackends(t, func(t *testing.T) {
		r := rng.New(808)
		for trial := 0; trial < 40; trial++ {
			n := 1 + r.Intn(24)
			k := 1 + r.Intn(24)
			m := 1 + r.Intn(40)
			a := randNested(r, n, k)
			b := randNested(r, k, m)

			want := linalg.Mul(a, b)

			td := tensor.New(n, m)
			tensor.MatMulInto(td, flat(a), flat(b))

			for i := 0; i < n; i++ {
				for j := 0; j < m; j++ {
					got := td.At(i, j)
					if math.Float64bits(got) != math.Float64bits(want[i][j]) {
						t.Fatalf("trial %d (%dx%dx%d): element (%d,%d) differs: tensor %v linalg %v",
							trial, n, k, m, i, j, got, want[i][j])
					}
				}
			}
		}
	})
}

// flat copies a non-ragged nested matrix into a row-major tensor.
func flat(a [][]float64) *tensor.Matrix {
	out := tensor.New(len(a), len(a[0]))
	for i, row := range a {
		copy(out.Data[i*out.Cols:(i+1)*out.Cols], row)
	}
	return out
}

// randNested draws a rows×cols nested matrix with exact zeros and
// negative zeros sprinkled in, so linalg's sparsity-skip branches and
// the no-skip blocked kernels are differentially exercised.
func randNested(r *rng.Rand, rows, cols int) [][]float64 {
	m := linalg.Zeros(rows, cols)
	for i := range m {
		for j := range m[i] {
			switch r.Intn(6) {
			case 0:
				m[i][j] = 0
			case 1:
				m[i][j] = math.Copysign(0, -1)
			default:
				m[i][j] = r.Uniform(-3, 3)
			}
		}
	}
	return m
}

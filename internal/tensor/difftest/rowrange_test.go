package difftest

import (
	"fmt"
	"testing"

	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/tensor"
)

// rowsOf returns rows [lo, hi) of m as a matrix sharing m's storage.
func rowsOf(m *tensor.Matrix, lo, hi int) *tensor.Matrix {
	return &tensor.Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// TestRowSubRangesMatchFullCall pins the kernel property a window's
// busy span relies on: a row-wise kernel computes each output row the
// same way whichever rows share its call. For every R from 1 to 9
// (rows moving between the assembly's 4-row tiles and their rest) and
// shapes with a full and an edge column panel, every sub-range [a, b)
// of an R-row input gives, bit for bit, rows [a, b) of the full call:
// MatMulPackedInto, MatMulPackedColsInto on column blocks,
// MatMulPackedBiasActInto with no activation and with tanh, and
// SoftmaxRows.
func TestRowSubRangesMatchFullCall(t *testing.T) {
	shapes := []struct{ k, n int }{{1, 1}, {3, 8}, {8, 13}, {16, 16}, {20, 33}}
	withBackends(t, func(t *testing.T) {
		r := rng.New(909)
		for R := 1; R <= 9; R++ {
			for _, sh := range shapes {
				spice := R%3 == 0
				a := tensor.New(R, sh.k)
				fillRand(r, a, spice)
				w := tensor.New(sh.k, sh.n)
				fillRand(r, w, spice)
				p := tensor.Pack(w)
				bias := tensor.New(1, sh.n)
				fillRand(r, bias, spice)
				// A column block of a wider operand into one of a wider
				// destination: attention's per-head products.
				aw := tensor.New(R, sh.k+5)
				fillRand(r, aw, spice)
				const ac, dc = 2, 3
				dwCols := sh.n + 7

				full := tensor.New(R, sh.n)
				tensor.MatMulPackedInto(full, a, p)
				fullCols := tensor.New(R, dwCols)
				tensor.MatMulPackedColsInto(fullCols, dc, aw, ac, p)
				var fullAct [2]*tensor.Matrix
				for i, act := range []tensor.ActKind{tensor.ActNone, tensor.ActTanh} {
					fullAct[i] = tensor.New(R, sh.n)
					tensor.MatMulPackedBiasActInto(fullAct[i], a, p, bias, act)
				}
				fullSoft := a.Clone()
				tensor.SoftmaxRows(fullSoft)

				for lo := 0; lo < R; lo++ {
					for hi := lo + 1; hi <= R; hi++ {
						label := func(op string) string {
							return fmt.Sprintf("%s R=%d k=%d n=%d rows [%d,%d)", op, R, sh.k, sh.n, lo, hi)
						}
						got := tensor.New(hi-lo, sh.n)
						tensor.MatMulPackedInto(got, rowsOf(a, lo, hi), p)
						bitsEqualMat(t, label("MatMulPackedInto"), got, rowsOf(full, lo, hi))

						gotCols := tensor.New(hi-lo, dwCols)
						tensor.MatMulPackedColsInto(gotCols, dc, rowsOf(aw, lo, hi), ac, p)
						bitsEqualMat(t, label("MatMulPackedColsInto"), gotCols, rowsOf(fullCols, lo, hi))

						for i, act := range []tensor.ActKind{tensor.ActNone, tensor.ActTanh} {
							got.Zero()
							tensor.MatMulPackedBiasActInto(got, rowsOf(a, lo, hi), p, bias, act)
							bitsEqualMat(t, label(fmt.Sprintf("MatMulPackedBiasActInto(act=%d)", act)), got, rowsOf(fullAct[i], lo, hi))
						}

						soft := rowsOf(a, lo, hi).Clone()
						tensor.SoftmaxRows(soft)
						bitsEqualMat(t, label("SoftmaxRows"), soft, rowsOf(fullSoft, lo, hi))
					}
				}
			}
		}
	})
}

package difftest

import (
	"strings"
	"testing"

	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/tensor"
)

// TestAliasPanicSweep proves every *Into kernel that reads an input
// after writing its destination rejects dst sharing storage with that
// input — including the blocked/packed kernels, the fused bias+act
// forms, the LSTM recurrence update, and the quantized backend. A
// silent alias here would corrupt results only on some shapes, which is
// exactly the bug class a panic converts into an immediate failure.
func TestAliasPanicSweep(t *testing.T) {
	r := rng.New(606)
	sq := tensor.New(8, 8)
	other := tensor.New(8, 8)
	fillRand(r, sq, false)
	fillRand(r, other, false)
	pk := tensor.Pack(other)
	bias := tensor.New(1, 8)

	sqf := tensor.NewF32(8, 8)
	q := tensor.QuantizeMat(other)
	row := make([]float64, 8)
	rowf := make([]float32, 8)

	cases := []struct {
		name string
		call func()
	}{
		{"MatMulInto dst==a", func() { tensor.MatMulInto(sq, sq, other) }},
		{"MatMulInto dst==b", func() { tensor.MatMulInto(sq, other, sq) }},
		{"MatMulTInto dst==a", func() { tensor.MatMulTInto(sq, sq, other) }},
		{"MatMulTInto dst==b", func() { tensor.MatMulTInto(sq, other, sq) }},
		{"MatMulPackedInto dst==a", func() { tensor.MatMulPackedInto(sq, sq, pk) }},
		{"MatMulPackedBiasActInto dst==a", func() { tensor.MatMulPackedBiasActInto(sq, sq, pk, bias, tensor.ActTanh) }},
		{"AddVecMatInto dst==w", func() { tensor.AddVecMatInto(other.Row(0), row, other) }},
		{"AddVecMatInto dst==h", func() { tensor.AddVecMatInto(row, row, other) }},
		{"MatMulPackedColsInto dst==a", func() { tensor.MatMulPackedColsInto(sq, 0, sq, 0, pk) }},
		{"QMatMulInto dst==a", func() { tensor.QMatMulInto(sqf, sqf, q) }},
		{"QMatMulBiasActInto dst==a", func() { tensor.QMatMulBiasActInto(sqf, sqf, q, nil, tensor.ActNone) }},
		{"QAddVecMatInto dst==h", func() { tensor.QAddVecMatInto(rowf, rowf, q) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, ok := recover().(string)
				if !ok || !strings.Contains(msg, "aliases") {
					t.Fatalf("want alias panic, got %v", msg)
				}
			}()
			tc.call()
		})
	}
}

//go:build amd64 && !purego

package tensor

// Vector transcendental bindings (vecmath_amd64.s). The kernels are
// only bit-identical to math.Exp/math.Tanh when the scalar math package
// itself runs its FMA path, i.e. on CPUs with AVX and FMA (math's
// private useFMA). We additionally require AVX2 (asmSupported) for the
// integer ldexp steps, which implies AVX — so vecSupported true means
// useFMA is true and the replica is exact. On anything else the slice
// wrappers call the scalar functions, which are trivially identical.

//go:noescape
func vexpblk(dst, x []float64) int

//go:noescape
func vsigmoidblk(dst, x []float64) int

//go:noescape
func vtanhblk(dst, x []float64) int

//go:noescape
func vgates(zr, bias, c, h []float64) int

//go:noescape
func vscale(x []float64, s float64)

//go:noescape
func vmaxsub(x []float64)

//go:noescape
func vsumdiv(x []float64)

//go:noescape
func vexpf8(dst, x []float32) int

//go:noescape
func vsigmoidf8(dst, x []float32) int

//go:noescape
func vtanhf8(dst, x []float32) int

// vecSupported reports AVX2+FMA with OS-enabled YMM state.
var vecSupported = asmSupported && detectFMA()

func detectFMA() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 1 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	return c1&(1<<12) != 0 // FMA3
}

// useVecKernels gates the vector transcendentals; flipped only by
// SetVecKernels (a testing hook, like SetAsmKernels).
var useVecKernels = vecSupported

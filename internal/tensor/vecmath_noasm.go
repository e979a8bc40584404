//go:build !amd64 || purego

package tensor

// Portable build: the slice transcendentals always take the scalar
// math.Exp/math.Tanh path. The stubs are never reached (useVecKernels
// is a false constant, so the compiler removes the calls).

const vecSupported = false

var useVecKernels = false

func vexpblk(dst, x []float64) int        { panic("tensor: no vector kernels") }
func vsigmoidblk(dst, x []float64) int    { panic("tensor: no vector kernels") }
func vtanhblk(dst, x []float64) int       { panic("tensor: no vector kernels") }
func vgates(zr, bias, c, h []float64) int { panic("tensor: no vector kernels") }
func vscale(x []float64, s float64)       { panic("tensor: no vector kernels") }
func vmaxsub(x []float64)                 { panic("tensor: no vector kernels") }
func vsumdiv(x []float64)                 { panic("tensor: no vector kernels") }
func vexpf8(dst, x []float32) int         { panic("tensor: no vector kernels") }
func vsigmoidf8(dst, x []float32) int     { panic("tensor: no vector kernels") }
func vtanhf8(dst, x []float32) int        { panic("tensor: no vector kernels") }

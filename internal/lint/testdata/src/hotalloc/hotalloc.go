// Package hotalloc is the golden fixture for the hot-path allocation
// analyzer: PredictDevice anchors the closure, helpers reached from
// it must be allocation-free, interface dispatch is expanded, panic
// arguments and allow-pruned edges are exempt.
package hotalloc

import "fmt"

type sink interface{ consume(x float64) }

type adder struct{ total float64 }

func (a *adder) consume(x float64) { a.total += x }

type boxer struct{ last any }

func (b *boxer) consume(x float64) {
	var i any
	i = x // want "assignment boxes"
	b.last = i
}

var global sink = &adder{}

// PredictDevice is a hot-path root by name.
func PredictDevice(dst []float64, xs []float64) []float64 {
	buf := make([]float64, len(xs)) // want "make allocates"
	for i, x := range xs {
		buf[i] = x
		dst = append(dst, x) // want "append may grow"
	}
	helper(dst)
	global.consume(sum(xs)) // interface dispatch: both impls are scanned
	if len(dst) == 0 {
		panic(fmt.Sprintf("empty input of %d samples", len(xs))) // panic args exempt
	}
	//dqnlint:allow hotalloc fixture: grow path amortized by the arena
	grow(dst)
	return dst
}

func helper(dst []float64) {
	p := new(adder) // want "new allocates"
	p.total = dst[0]
	s := []float64{1, 2} // want "slice literal allocates"
	dst[0] = s[0]
	a := &adder{} // want "composite literal escapes"
	a.total++
	f := func() float64 { return dst[0] } // want "closure captures dst"
	dst[0] = f()
	printish(dst[0]) // want "argument boxes" "variadic call allocates"
	_ = fmt.Sprint() // want "fmt.Sprint allocates"
}

func printish(vals ...any) {}

func sum(xs []float64) float64 {
	n := 0.0
	for _, x := range xs {
		n += x
	}
	return n
}

// grow sits behind an allow-pruned edge: its alloc is intentional.
func grow(dst []float64) {
	extra := append(dst, 1) // pruned: no diagnostic expected
	dst[0] = extra[0]
}

// coldPath is unreachable from any root: allocs here are fine.
func coldPath() []float64 {
	return make([]float64, 4)
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FloatEq flags == and != comparisons with floating-point operands in
// the numeric-kernel packages. Exact float equality silently encodes an
// assumption about rounding behavior; the SEC correction and the
// min-max scaler are only stable when degenerate cases are handled with
// explicit tolerances (or a justified //dqnlint:allow for genuine
// exact-representation checks such as sentinel zeros).
//
// _test.go files are exempt by design: in this repo exact comparison in
// tests usually IS the assertion — the IRSA bit-determinism suite pins
// byte-identical results, and a tolerance there would hide the very
// drift the test exists to catch.
var FloatEq = &Analyzer{
	Name:     "floateq",
	Packages: floatPackages,
	Run:      runFloatEq,
}

func runFloatEq(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		if strings.HasSuffix(pass.Pkg.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			xt, xok := info.Types[be.X]
			yt, yok := info.Types[be.Y]
			if !xok || !yok {
				return true
			}
			// Two compile-time constants compare exactly by definition.
			if xt.Value != nil && yt.Value != nil {
				return true
			}
			if isFloat(xt.Type) || isFloat(yt.Type) {
				pass.Reportf(be.OpPos,
					"float equality: %s on %s operands (use a tolerance, or //dqnlint:allow with why exact compare is sound)",
					be.Op, floatOperandType(xt.Type, yt.Type))
			}
			return true
		})
	}
}

func floatOperandType(x, y types.Type) types.Type {
	if isFloat(x) {
		return x
	}
	return y
}

package lint

import (
	"go/ast"
	"go/types"
)

// Analyzers returns every dqnlint analyzer in stable order: the four
// per-file syntactic checks and the two cross-package, flow-aware
// checks (hot-path allocations, lock discipline).
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FloatEq,
		DetGuard,
		GoGuard,
		ErrDiscard,
		HotAlloc,
		LockSafe,
	}
}

// simPackages are the deterministic simulation packages and the
// evaluation code that reduces their output to the paper's tables:
// both must be bit-identical across runs (IRSA re-sequencing, Theorem
// 3.1; the paper gates), so wall-clock reads, global randomness, and
// map-order leaks are forbidden there.
var simPackages = []string{"internal/core", "internal/des", "internal/ptm", "internal/topo",
	"internal/metrics", "internal/experiments"}

// floatPackages hold the numeric kernels (PTM inference, SEC binning,
// training math) where branching on exact float equality is a latent
// numeric-stability bug.
var floatPackages = []string{
	"internal/linalg", "internal/nn", "internal/ptm",
	"internal/queueing", "internal/dbscan", "internal/metrics",
}

// unparen strips parentheses from an expression.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package-level function or method), or nil for builtins, conversions,
// function-typed variables, and interface methods it cannot pin to a
// declaration.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	if obj, ok := info.Uses[id].(*types.Func); ok {
		return obj
	}
	return nil
}

// identObj returns the object an identifier uses or defines.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// isBuiltinCall reports whether the call invokes a language builtin
// (append, len, copy, ...) or is a type conversion.
func isBuiltinCall(info *types.Info, call *ast.CallExpr) bool {
	fun := unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return true // conversion
	}
	id, ok := fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, isB := info.Uses[id].(*types.Builtin)
	return isB
}

// isPkgFunc reports whether obj is the package-level function
// pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() != pkgPath || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isFloat reports whether t's underlying type is a floating-point type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// enclosingFuncBody returns the body of the innermost function literal
// or declaration in file that strictly contains pos, or nil.
func enclosingFuncBody(file *ast.File, pos ast.Node) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body != nil && body.Pos() <= pos.Pos() && pos.End() <= body.End() {
			best = body // keep descending: innermost wins
		}
		return true
	})
	return best
}

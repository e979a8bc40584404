package lint

import (
	"go/ast"
	"go/types"
)

// Analyzers returns every dqnlint analyzer in stable order: float
// equality, determinism, goroutine panic isolation, error chains and
// lock discipline. The zero-alloc hot path has no analyzer: the
// AllocsPerRun pins in ptm, core, nn, chaos and tensor/difftest gate it
// at run time.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FloatEq,
		DetGuard,
		GoGuard,
		ErrDiscard,
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

// isPanicCall reports whether call invokes the panic builtin.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isB := info.Uses[id].(*types.Builtin)
	return isB
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
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

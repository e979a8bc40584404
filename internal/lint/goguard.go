package lint

import (
	"go/ast"
	"go/types"
)

// GoGuard enforces the PR 1 shard-isolation contract: a panic inside a
// spawned goroutine must be recovered (into a guard.ShardError or
// equivalent) instead of killing the process — recover only works on
// the panicking goroutine, so every `go` statement must lead to a
// deferred recover. The check follows direct calls up to a few frames
// deep (the engine's pattern routes goroutine bodies through a
// *Guarded helper that defers the recovery), so indirection through
// ordinary helpers does not force an allow directive.
var GoGuard = &Analyzer{
	Name: "goguard",
	Run:  runGoGuard,
}

// goGuardDepth bounds how many call frames the analyzer follows from
// the goroutine entry point looking for a deferred recover.
const goGuardDepth = 4

func runGoGuard(pass *Pass) {
	idx := pass.Ctx.Graph()
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goroutineGuarded(pass.Pkg, idx, gs.Call, goGuardDepth, map[*types.Func]bool{}) {
				pass.Reportf(gs.Go,
					"unguarded goroutine: no deferred recover on this path — a panic here kills the process (recover into a guard error, PR 1 isolation contract)")
			}
			return false // the spawned body was just analyzed
		})
	}
}

// goroutineGuarded reports whether the goroutine entered through call
// reaches a deferred recover within depth call frames.
func goroutineGuarded(pkg *Package, idx *CallGraph, call *ast.CallExpr, depth int, seen map[*types.Func]bool) bool {
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		return bodyGuarded(pkg, idx, lit.Body, depth, seen)
	}
	fn := calleeFunc(pkg.Info, call)
	if fn == nil {
		return false // dynamic call: cannot prove a recover exists
	}
	return funcGuarded(idx, fn, depth, seen)
}

func funcGuarded(idx *CallGraph, fn *types.Func, depth int, seen map[*types.Func]bool) bool {
	if depth <= 0 || seen[fn] {
		return false
	}
	seen[fn] = true
	decl := idx.Decl[fn]
	if decl == nil {
		return false
	}
	return bodyGuarded(idx.PkgOf[fn], idx, decl.Body, depth, seen)
}

// bodyGuarded reports whether body defers a recover itself, or calls a
// function that does (within the remaining depth budget).
func bodyGuarded(pkg *Package, idx *CallGraph, body *ast.BlockStmt, depth int, seen map[*types.Func]bool) bool {
	if hasDeferredRecover(pkg, idx, body) {
		return true
	}
	guarded := false
	ast.Inspect(body, func(n ast.Node) bool {
		if guarded {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // not executed on this goroutine's frame chain
		case *ast.GoStmt:
			return false // a nested goroutine is its own problem
		case *ast.CallExpr:
			if fn := calleeFunc(pkg.Info, n); fn != nil && funcGuarded(idx, fn, depth-1, seen) {
				guarded = true
				return false
			}
		}
		return true
	})
	return guarded
}

// hasDeferredRecover reports whether body contains a defer that leads
// to a direct recover() call: either a deferred function literal whose
// body calls recover, or a deferred named function that calls recover
// directly in its own body.
func hasDeferredRecover(pkg *Package, idx *CallGraph, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // defers inside nested literals guard those literals
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		switch fun := unparen(ds.Call.Fun).(type) {
		case *ast.FuncLit:
			if callsRecover(pkg.Info, fun.Body) {
				found = true
			}
		default:
			if fn := calleeFunc(pkg.Info, ds.Call); fn != nil {
				if decl := idx.Decl[fn]; decl != nil && callsRecover(idx.PkgOf[fn].Info, decl.Body) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// callsRecover reports whether body calls the recover builtin directly
// (not inside a nested function literal, where it would recover a
// different frame).
func callsRecover(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
			if _, isB := info.Uses[id].(*types.Builtin); isB {
				found = true
			}
		}
		return true
	})
	return found
}

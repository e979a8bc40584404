package lint

import (
	"go/ast"
	"go/types"
)

// DetGuard enforces bit-determinism in the simulation packages: IRSA's
// convergence proof (Theorem 3.1) and every golden-trace test assume a
// run is a pure function of its inputs and seeds. It flags three leak
// paths: wall-clock reads (time.Now), the globally-seeded math/rand
// top-level functions (use internal/rng with an explicit seed), and
// map-range loops that append to a slice never handed to a sort —
// Go randomizes map iteration order, so such a slice's order changes
// run to run.
var DetGuard = &Analyzer{
	Name:     "detguard",
	Packages: simPackages,
	Run:      runDetGuard,
}

// globalRandConstructors are the math/rand package-level functions that
// build explicitly-seeded generators rather than drawing from the
// global source; they do not break determinism by themselves.
var globalRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func runDetGuard(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				obj := info.Uses[n.Sel]
				if isPkgFunc(obj, "time", "Now") {
					pass.Reportf(n.Pos(),
						"nondeterministic: time.Now in a deterministic sim package (inject a clock, or //dqnlint:allow for instrumentation)")
				}
				if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil &&
					(fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2") {
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && !globalRandConstructors[fn.Name()] {
						pass.Reportf(n.Pos(),
							"nondeterministic: global math/rand.%s draws from the shared unseeded source (use internal/rng with an explicit seed)",
							fn.Name())
					}
				}
			case *ast.RangeStmt:
				checkMapRangeOrder(pass, file, n)
			}
			return true
		})
	}
}

// checkMapRangeOrder flags a range over a map whose body appends to a
// slice that the enclosing function never sorts: the slice's element
// order then depends on Go's randomized map iteration order.
func checkMapRangeOrder(pass *Pass, file *ast.File, rs *ast.RangeStmt) {
	info := pass.Pkg.Info
	tv, ok := info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	targets := appendTargets(info, rs.Body)
	if len(targets) == 0 {
		return
	}
	scope := enclosingFuncBody(file, rs)
	if scope == nil {
		return
	}
	for _, target := range targets {
		if !sortedInScope(info, scope, target) {
			pass.Reportf(rs.For,
				"map iteration order leaks: %q is appended inside a map range but never sorted in this function (Go randomizes map order)",
				target)
		}
	}
}

// appendTargets returns the printed form of every expression assigned
// from an append(...) call inside body.
func appendTargets(info *types.Info, body *ast.BlockStmt) []string {
	var out []string
	seen := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			id, ok := unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "append" {
				continue
			}
			if _, isB := info.Uses[id].(*types.Builtin); !isB {
				continue
			}
			if i >= len(as.Lhs) {
				continue
			}
			key := types.ExprString(as.Lhs[i])
			if key != "_" && !seen[key] {
				seen[key] = true
				out = append(out, key)
			}
		}
		return true
	})
	return out
}

// sortedInScope reports whether any sort.* / slices.Sort* call in scope
// takes the named expression as an argument (unwrapping one conversion,
// for sort.Sort(byFoo(xs)) style calls).
func sortedInScope(info *types.Info, scope *ast.BlockStmt, target string) bool {
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		path := fn.Pkg().Path()
		if path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			a := unparen(arg)
			if types.ExprString(a) == target {
				found = true
				return false
			}
			if conv, ok := a.(*ast.CallExpr); ok && len(conv.Args) == 1 {
				if types.ExprString(unparen(conv.Args[0])) == target {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc is the static form of the PR 3 AllocsPerRun pins: no
// allocation site may be reachable from the steady-state inference
// roots — PTM.PredictDevice, the networks' Infer (exact and quantized)
// and the tensor Into-kernels. The call
// graph is followed through module interfaces (the nn layer dispatch), panic
// arguments are exempt (failure paths may format errors), and an
// //dqnlint:allow hotalloc directive on a call site prunes that edge
// (the grow-path convention: arena growth, session construction).
var HotAlloc = &Analyzer{
	Name: hotAllocName,
	Doc:  "flags allocation sites reachable from the zero-alloc inference hot path (static AllocsPerRun gate)",
	Run:  runHotAlloc,
}

// hotRootNames are function names that anchor the zero-alloc closure
// wherever they are declared (the PR 3/PR 4 steady-state entry points).
var hotRootNames = map[string]bool{
	"PredictDevice": true,
	"Infer":         true,
}

// hotRoots collects the closure roots: the named prediction entry
// points plus every exported *Into kernel in a package whose import
// path ends in "tensor".
func hotRoots(g *CallGraph) []*types.Func {
	var roots []*types.Func
	for fn := range g.Decl {
		if hotRootNames[fn.Name()] {
			roots = append(roots, fn)
			continue
		}
		pkg := g.PkgOf[fn]
		if pkg != nil && strings.HasSuffix(pkg.Path, "tensor") &&
			fn.Exported() && strings.HasSuffix(fn.Name(), "Into") {
			roots = append(roots, fn)
		}
	}
	return roots
}

// hotAllocName is HotAlloc's name, named separately to break the
// initialization cycle between the analyzer value and its fact builder.
const hotAllocName = "hotalloc"

// hotReach returns the shared reachability closure, built once per run.
func (c *Context) hotReach() map[*types.Func]string {
	c.hotOnce.Do(func() {
		g := c.Graph()
		c.hot = g.Reachable(hotAllocName, hotRoots(g))
	})
	return c.hot
}

func runHotAlloc(pass *Pass) {
	reach := pass.Ctx.hotReach()
	g := pass.Ctx.Graph()
	for fn, via := range reach {
		if g.PkgOf[fn] != pass.Pkg {
			continue // each package pass reports only its own functions
		}
		decl := g.Decl[fn]
		if decl == nil || decl.Body == nil {
			continue
		}
		scanHotFunc(pass, fn, via, decl)
	}
}

// scanHotFunc reports every allocation site in one hot-path function.
func scanHotFunc(pass *Pass, fn *types.Func, via string, decl *ast.FuncDecl) {
	info := pass.Pkg.Info
	where := fn.Name()
	if via != where {
		where = fn.Name() + " (reachable from " + via + ")"
	}
	handledLits := map[*ast.CompositeLit]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanicCall(info, n) {
				return false // failure path: fmt boxing there is fine
			}
			scanHotCall(pass, where, n)
		case *ast.UnaryExpr:
			if lit, ok := unparen(n.X).(*ast.CompositeLit); ok && n.Op == token.AND {
				handledLits[lit] = true
				pass.Reportf(n.Pos(), "hot path: &composite literal escapes to the heap in %s (zero-alloc AllocsPerRun gate)", where)
			}
		case *ast.CompositeLit:
			if handledLits[n] {
				return true
			}
			if t, ok := info.Types[n]; ok {
				switch t.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(n.Pos(), "hot path: %s literal allocates in %s (zero-alloc AllocsPerRun gate)", typeKindWord(t.Type), where)
				}
			}
		case *ast.FuncLit:
			if capt := closureCapture(info, n); capt != "" {
				pass.Reportf(n.Pos(), "hot path: closure captures %s and allocates in %s (zero-alloc AllocsPerRun gate)", capt, where)
			}
		case *ast.AssignStmt:
			scanHotAssign(pass, where, n)
		}
		return true
	})
}

// scanHotCall reports allocating calls: the make/append/new builtins,
// fmt formatting, interface-boxing conversions and arguments, and
// variadic argument slices.
func scanHotCall(pass *Pass, where string, call *ast.CallExpr) {
	info := pass.Pkg.Info
	fun := unparen(call.Fun)

	if id, ok := fun.(*ast.Ident); ok {
		if _, isB := info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "make":
				pass.Reportf(call.Pos(), "hot path: make allocates in %s (zero-alloc AllocsPerRun gate; use arena or grow-only buffers)", where)
			case "append":
				pass.Reportf(call.Pos(), "hot path: append may grow its backing array in %s (zero-alloc AllocsPerRun gate; pre-size or annotate the grow path)", where)
			case "new":
				pass.Reportf(call.Pos(), "hot path: new allocates in %s (zero-alloc AllocsPerRun gate)", where)
			}
			return
		}
	}

	// Conversion to an interface type boxes its operand.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && boxes(info, call.Args[0]) {
			pass.Reportf(call.Pos(), "hot path: conversion to %s boxes its operand in %s (zero-alloc AllocsPerRun gate)", tv.Type.String(), where)
		}
		return
	}

	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "hot path: fmt.%s allocates in %s (zero-alloc AllocsPerRun gate)", fn.Name(), where)
		return
	}

	// Implicit boxing at the call boundary, and variadic spill slices.
	sigTV, ok := info.Types[fun]
	if !ok {
		return
	}
	sig, ok := sigTV.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice
			}
			pt = params.At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && boxes(info, arg) {
			pass.Reportf(arg.Pos(), "hot path: argument boxes into %s in %s (zero-alloc AllocsPerRun gate)", pt.String(), where)
		}
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= np {
		pass.Reportf(call.Pos(), "hot path: variadic call allocates its argument slice in %s (zero-alloc AllocsPerRun gate)", where)
	}
}

// scanHotAssign reports implicit boxing on assignment to an
// interface-typed destination.
func scanHotAssign(pass *Pass, where string, as *ast.AssignStmt) {
	info := pass.Pkg.Info
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt, ok := info.Types[lhs]
		if !ok || !types.IsInterface(lt.Type) {
			continue
		}
		if boxes(info, as.Rhs[i]) {
			pass.Reportf(as.Rhs[i].Pos(), "hot path: assignment boxes into %s in %s (zero-alloc AllocsPerRun gate)", lt.Type.String(), where)
		}
	}
}

// boxes reports whether storing expr into an interface allocates: the
// expression has a concrete type whose representation is wider than one
// pointer word (structs, slices, strings, numerics), so the conversion
// heap-allocates the boxed copy. Pointer-shaped values (pointers,
// channels, maps, funcs) and untyped nil do not.
func boxes(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() || types.IsInterface(tv.Type) {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if b := tv.Type.Underlying().(*types.Basic); b.Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

// closureCapture returns the name of a variable the function literal
// captures from an enclosing function (forcing a heap-allocated closure
// object), or "" when the literal is capture-free (compiled to a static
// function value, no allocation).
func closureCapture(info *types.Info, lit *ast.FuncLit) string {
	capt := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if capt != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level: no capture
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			capt = v.Name()
		}
		return true
	})
	return capt
}

// typeKindWord names the allocating literal kind for diagnostics.
func typeKindWord(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}

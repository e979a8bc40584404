package lint

import (
	"go/ast"
	"go/types"
	"sync"
)

// Context carries the cross-package facts shared by every analyzer pass
// of one Lint run: the call graph and the hot-path reachability
// closure. Facts are built lazily behind sync.Once so a run that never
// needs one never pays for it, and the parallel per-package passes can
// all share a single computation.
type Context struct {
	All []*Package

	graphOnce sync.Once
	graph     *CallGraph

	hotOnce sync.Once
	hot     map[*types.Func]string // reachable fn -> root it is reached from
}

// NewContext wraps the loaded packages of one analysis run.
func NewContext(all []*Package) *Context {
	return &Context{All: all}
}

// Graph returns the module call graph, building it on first use.
func (c *Context) Graph() *CallGraph {
	c.graphOnce.Do(func() { c.graph = buildCallGraph(c.All) })
	return c.graph
}

// CallGraph indexes every declared function of the module and resolves
// call sites to their possible module-defined callees, expanding calls
// through module-defined interfaces to every implementation (the nn
// layer dispatch pattern: Sequential.Infer -> inferLayer.infer -> each
// layer's concrete method).
type CallGraph struct {
	Decl  map[*types.Func]*ast.FuncDecl
	PkgOf map[*types.Func]*Package
	// impls maps an interface method object to the concrete methods of
	// every module type that satisfies the interface.
	impls map[*types.Func][]*types.Func
}

func buildCallGraph(all []*Package) *CallGraph {
	idx := buildFuncIndex(all)
	g := &CallGraph{Decl: idx.decl, PkgOf: idx.pkg, impls: map[*types.Func][]*types.Func{}}

	// Collect every named type and every named interface defined in the
	// module, then match implementations to interface methods.
	var concrete []*types.Named
	var ifaces []*types.Named
	for _, p := range all {
		if p.Types == nil {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				ifaces = append(ifaces, named)
			} else {
				concrete = append(concrete, named)
			}
		}
	}
	for _, in := range ifaces {
		iface, ok := in.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 {
			continue
		}
		for _, cn := range concrete {
			var impl types.Type = cn
			if !types.Implements(impl, iface) {
				impl = types.NewPointer(cn)
				if !types.Implements(impl, iface) {
					continue
				}
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok && g.Decl[fn] != nil {
					g.impls[m] = append(g.impls[m], fn)
				}
			}
		}
	}
	return g
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// Callees resolves a call in pkg to the module-defined functions it may
// invoke: the static callee, or every implementation when the call goes
// through a module-defined interface method. Dynamic calls through
// function values resolve to nothing.
func (g *CallGraph) Callees(pkg *Package, call *ast.CallExpr) []*types.Func {
	fn := calleeFunc(pkg.Info, call)
	if fn == nil {
		return nil
	}
	if isInterfaceMethod(fn) {
		return g.impls[fn]
	}
	if g.Decl[fn] == nil {
		return nil // stdlib or undeclared: no body to follow
	}
	return []*types.Func{fn}
}

// isPanicCall reports whether call invokes the panic builtin. Analyzer
// traversals skip panic arguments: a failure path may format an error
// (fmt boxing, Sprintf allocation) without violating steady-state
// invariants.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isB := info.Uses[id].(*types.Builtin)
	return isB
}

// Reachable computes the closure of functions reachable from roots,
// following static and interface-expanded calls. An //dqnlint:allow
// directive for analyzer on a call-site line prunes that edge (the
// callee subtree is intentionally off the invariant's path), and calls
// inside panic arguments are never followed. The result maps each
// reachable function to the name of a root it is reached from.
func (g *CallGraph) Reachable(analyzer string, roots []*types.Func) map[*types.Func]string {
	reach := make(map[*types.Func]string, len(roots))
	var queue []*types.Func
	for _, r := range roots {
		if reach[r] == "" && g.Decl[r] != nil {
			reach[r] = r.Name()
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		pkg, decl := g.PkgOf[fn], g.Decl[fn]
		if pkg == nil || decl == nil || decl.Body == nil {
			continue
		}
		via := reach[fn]
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isPanicCall(pkg.Info, call) {
				return false // failure path: not steady-state
			}
			line := pkg.Fset.Position(call.Pos()).Line
			file := pkg.Fset.Position(call.Pos()).Filename
			if pkg.allowed(analyzer, file, line) {
				return false // edge explicitly exempted at the call site
			}
			for _, callee := range g.Callees(pkg, call) {
				if reach[callee] == "" {
					reach[callee] = via
					queue = append(queue, callee)
				}
			}
			return true
		})
	}
	return reach
}

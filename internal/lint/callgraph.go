package lint

import (
	"go/ast"
	"go/types"
	"sync"
)

// Context carries the cross-package facts shared by every analyzer pass
// of one Lint run: the module's declared-function index. It is built
// lazily behind sync.Once so a run that never needs it never pays for
// it, and the parallel per-package passes can all share a single
// computation.
type Context struct {
	All []*Package

	graphOnce sync.Once
	graph     *CallGraph
}

// NewContext wraps the loaded packages of one analysis run.
func NewContext(all []*Package) *Context {
	return &Context{All: all}
}

// Graph returns the module's function index, building it on first use.
func (c *Context) Graph() *CallGraph {
	c.graphOnce.Do(func() { c.graph = buildCallGraph(c.All) })
	return c.graph
}

// CallGraph maps every declared function of the module to its body and
// package, so call chains can be followed across packages (goguard
// follows a goroutine's entry point into its helpers).
type CallGraph struct {
	Decl  map[*types.Func]*ast.FuncDecl
	PkgOf map[*types.Func]*Package
}

func buildCallGraph(all []*Package) *CallGraph {
	g := &CallGraph{Decl: map[*types.Func]*ast.FuncDecl{}, PkgOf: map[*types.Func]*Package{}}
	for _, p := range all {
		if p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					g.Decl[obj] = fd
					g.PkgOf[obj] = p
				}
			}
		}
	}
	return g
}

// Package lint is dqnlint's engine: a stdlib-only static-analysis
// driver (go/parser + go/ast + go/types, no external modules) that
// enforces the repository invariants the compiler cannot see. IRSA
// convergence (Theorem 3.1) requires bit-deterministic re-sequencing
// across sweeps, the PTM/SEC numeric kernels must not branch on exact
// float equality, and the PR 1 robustness contract requires every
// spawned goroutine to recover panics into a guard error. Each invariant
// is checked by one Analyzer; intentional exceptions are annotated in
// source with a //dqnlint:allow directive carrying a justification.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //dqnlint:allow
	// directives.
	Name string
	// Packages restricts the analyzer to these module-relative import
	// paths (e.g. "internal/core"). Empty means every package.
	Packages []string
	// Run reports findings in pass.Pkg through pass.Reportf.
	Run func(pass *Pass)
}

// Watches reports whether the analyzer applies to the package at the
// given module-relative path ("" is the module root package).
func (a *Analyzer) Watches(relPath string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if p == relPath {
			return true
		}
	}
	return false
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Pkg *Package
	// Ctx holds the shared cross-package facts (the function index)
	// built once per Lint run.
	Ctx *Context

	analyzer *Analyzer
	diags    []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Lint runs the given analyzers over every package, honoring each
// analyzer's package filter and the //dqnlint:allow directives in the
// source, and reports every directive that names no analyzer or gives
// no justification. Packages are analyzed in parallel (the shared fact
// layer is built once up front so the fan-out only reads); diagnostics
// come back sorted by file, line, column, analyzer.
func Lint(mod *Module, analyzers []*Analyzer) []Diagnostic {
	ctx := NewContext(mod.Pkgs)
	results := make([][]Diagnostic, len(mod.Pkgs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(mod.Pkgs) {
		workers = len(mod.Pkgs)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var panicked atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Recover analyzer panics and rethrow them on the caller's
			// goroutine so a crashing analyzer still fails loudly (and
			// satisfies the repo's own goguard contract).
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, fmt.Sprintf("lint: analyzer panic: %v", r))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(mod.Pkgs) {
					return
				}
				pkg := mod.Pkgs[i]
				rel := mod.Rel(pkg.Path)
				for _, an := range analyzers {
					if !an.Watches(rel) {
						continue
					}
					results[i] = append(results[i], lintPackage(ctx, pkg, an)...)
				}
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	var out []Diagnostic
	for i, r := range results {
		out = append(out, r...)
		out = append(out, mod.Pkgs[i].badAllows...)
	}
	sortDiagnostics(out)
	return out
}

// LintPackage runs one analyzer over one package, honoring allow
// directives but not the analyzer's package filter. It is the entry
// point used by the golden-file self-tests and by targeted runs.
func LintPackage(pkg *Package, all []*Package, an *Analyzer) []Diagnostic {
	return lintPackage(NewContext(all), pkg, an)
}

func lintPackage(ctx *Context, pkg *Package, an *Analyzer) []Diagnostic {
	pass := &Pass{Pkg: pkg, Ctx: ctx, analyzer: an}
	an.Run(pass)
	out := pass.diags[:0]
	for _, d := range pass.diags {
		if !pkg.allowed(an.Name, d.File, d.Line) {
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// AllowPrefix introduces a suppression directive. The full form is
//
//	//dqnlint:allow <analyzer>[,<analyzer>|all] <one-line justification>
//
// placed either at the end of the offending line or on the line directly
// above it. Lint reports a directive whose names are not all analyzers
// of Analyzers() (or "all"), or that has no justification: a directive
// left behind by a deleted analyzer, or a misspelled one, would
// otherwise suppress nothing unnoticed.
const AllowPrefix = "dqnlint:allow"

// allows maps file → line → analyzer names suppressed at that line.
type allows map[string]map[int][]string

// collectAllows scans a file's comments for //dqnlint:allow directives,
// recording the names they suppress in p.allows and a finding for each
// malformed one in p.badAllows.
func collectAllows(fset *token.FileSet, file *ast.File, p *Package) {
	known := map[string]bool{"all": true}
	for _, an := range Analyzers() {
		known[an.Name] = true
	}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, AllowPrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			bad := func(format string, args ...any) {
				p.badAllows = append(p.badAllows, Diagnostic{Analyzer: "allow",
					File: pos.Filename, Line: pos.Line, Col: pos.Column, Message: fmt.Sprintf(format, args...)})
			}
			fields := strings.Fields(strings.TrimPrefix(text, AllowPrefix))
			if len(fields) < 2 {
				bad("directive has no justification: write //%s <analyzer> <why>", AllowPrefix)
			}
			if len(fields) == 0 {
				continue
			}
			names := strings.Split(fields[0], ",")
			for _, name := range names {
				if !known[name] {
					bad("directive names %q, which is no dqnlint analyzer", name)
				}
			}
			m := p.allows[pos.Filename]
			if m == nil {
				m = make(map[int][]string)
				p.allows[pos.Filename] = m
			}
			m[pos.Line] = append(m[pos.Line], names...)
		}
	}
}

// allowed reports whether a diagnostic from analyzer at file:line is
// suppressed by a directive on the same line or the line above.
func (p *Package) allowed(analyzer, file string, line int) bool {
	m := p.allows[file]
	if m == nil {
		return false
	}
	for _, l := range []int{line, line - 1} {
		for _, name := range m[l] {
			if name == analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module.
type Package struct {
	Path  string // full import path
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	allows    allows
	badAllows []Diagnostic // malformed allow directives, reported by Lint
}

// Module is the loaded module: every package parsed and type-checked
// against a shared FileSet, with module-internal imports resolved from
// the parsed tree and standard-library imports resolved from GOROOT
// source (no compiled export data, no external tooling).
type Module struct {
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path
}

// Rel returns the module-relative form of an import path: "" for the
// root package, "internal/core" for deepqueuenet/internal/core.
func (m *Module) Rel(importPath string) string {
	if importPath == m.Path {
		return ""
	}
	return strings.TrimPrefix(importPath, m.Path+"/")
}

// Load parses and type-checks every package under the module rooted at
// dir. Directories named testdata, hidden directories, and _test.go
// files are skipped: dqnlint checks shipped code, and test fixtures
// deliberately contain violations. includeTests adds in-package
// _test.go files (external foo_test packages stay excluded — they would
// need a second type-check universe per directory).
func Load(dir string, includeTests bool) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	mod := &Module{Path: modPath, Fset: fset}

	dirs, err := packageDirs(abs)
	if err != nil {
		return nil, err
	}
	ld := &loader{
		mod:      mod,
		tests:    includeTests,
		parsed:   make(map[string]*Package),
		checking: make(map[string]bool),
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		stdCache: make(map[string]*types.Package),
	}
	for _, d := range dirs {
		rel, _ := filepath.Rel(abs, d)
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := ld.parseDir(ip, d)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			ld.parsed[ip] = pkg
		}
	}
	var errs []error
	for _, ip := range sortedKeys(ld.parsed) {
		if err := ld.check(ip); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return nil, fmt.Errorf("lint: type check failed:\n%s", strings.Join(msgs, "\n"))
	}
	for _, ip := range sortedKeys(ld.parsed) {
		mod.Pkgs = append(mod.Pkgs, ld.parsed[ip])
	}
	return mod, nil
}

// LoadDir parses and type-checks a single directory as a standalone
// package (imports resolved from the standard library only). It backs
// the golden-file self-tests, whose fixtures are self-contained.
func LoadDir(dir, importPath string) (*Package, error) {
	fset := token.NewFileSet()
	mod := &Module{Path: importPath, Fset: fset}
	ld := &loader{
		mod:      mod,
		parsed:   make(map[string]*Package),
		checking: make(map[string]bool),
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		stdCache: make(map[string]*types.Package),
	}
	pkg, err := ld.parseDir(importPath, dir)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	ld.parsed[importPath] = pkg
	if err := ld.check(importPath); err != nil {
		return nil, err
	}
	return pkg, nil
}

type loader struct {
	mod      *Module
	tests    bool
	parsed   map[string]*Package
	checking map[string]bool
	std      types.ImporterFrom
	stdCache map[string]*types.Package
}

// parseDir parses the primary package in dir, or returns nil if the dir
// holds no buildable Go files.
func (ld *loader) parseDir(importPath, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type parsed struct {
		name string
		file *ast.File
	}
	var files []parsed
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") && !ld.tests {
			continue
		}
		if !buildableName(name) {
			continue
		}
		f, err := parser.ParseFile(ld.mod.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if !buildableConstraints(f) {
			continue
		}
		files = append(files, parsed{name: name, file: f})
	}
	if len(files) == 0 {
		return nil, nil
	}
	// The primary package name is the one used by non-test files;
	// external foo_test packages are dropped (see Load doc).
	primary := ""
	for _, p := range files {
		if !strings.HasSuffix(p.name, "_test.go") {
			primary = p.file.Name.Name
			break
		}
	}
	if primary == "" {
		return nil, nil // test-only directory with external test package
	}
	pkg := &Package{Path: importPath, Fset: ld.mod.Fset, allows: make(allows)}
	for _, p := range files {
		if p.file.Name.Name != primary {
			continue
		}
		pkg.Files = append(pkg.Files, p.file)
		collectAllows(ld.mod.Fset, p.file, pkg)
	}
	return pkg, nil
}

// check type-checks one parsed package (and, recursively, its
// module-internal dependencies).
func (ld *loader) check(importPath string) error {
	pkg := ld.parsed[importPath]
	if pkg == nil || pkg.Types != nil {
		return nil
	}
	if ld.checking[importPath] {
		return fmt.Errorf("lint: import cycle through %s", importPath)
	}
	ld.checking[importPath] = true
	defer func() { ld.checking[importPath] = false }()

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: ld,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, ld.mod.Fset, pkg.Files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for _, e := range typeErrs {
			msgs = append(msgs, "\t"+e.Error())
		}
		return fmt.Errorf("%s:\n%s", importPath, strings.Join(msgs, "\n"))
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}

// Import implements types.Importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	return ld.ImportFrom(path, "", 0)
}

// ImportFrom resolves module-internal imports from the parsed tree and
// everything else from GOROOT source.
func (ld *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg := ld.parsed[path]; pkg != nil {
		if pkg.Types == nil {
			if err := ld.check(path); err != nil {
				return nil, err
			}
		}
		return pkg.Types, nil
	}
	if p, ok := ld.stdCache[path]; ok {
		return p, nil
	}
	p, err := ld.std.ImportFrom(path, dir, mode)
	if err == nil {
		ld.stdCache[path] = p
	}
	return p, err
}

// lintOS/lintArch are the platform the lint universe is built for: the
// host running the linter, matching what `go build` would select there.
var (
	lintOS   = runtime.GOOS
	lintArch = runtime.GOARCH
)

// knownArches/knownOSes are the GOOS/GOARCH values recognized in file
// name suffixes and build tags (a subset is enough: only names on the
// lists constrain a file).
var knownArches = map[string]bool{
	"386": true, "amd64": true, "arm": true, "arm64": true, "loong64": true,
	"mips": true, "mips64": true, "mips64le": true, "mipsle": true,
	"ppc64": true, "ppc64le": true, "riscv64": true, "s390x": true, "wasm": true,
}

var knownOSes = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "js": true, "linux": true,
	"netbsd": true, "openbsd": true, "plan9": true, "solaris": true,
	"wasip1": true, "windows": true,
}

// buildableName applies the implicit _GOOS / _GOARCH / _GOOS_GOARCH
// file name constraints against the lint platform.
func buildableName(name string) bool {
	base := strings.TrimSuffix(strings.TrimSuffix(name, ".go"), "_test")
	parts := strings.Split(base, "_")
	if len(parts) < 2 {
		return true
	}
	last := parts[len(parts)-1]
	if knownArches[last] {
		if last != lintArch {
			return false
		}
		if len(parts) >= 3 && knownOSes[parts[len(parts)-2]] {
			return parts[len(parts)-2] == lintOS
		}
		return true
	}
	if knownOSes[last] {
		return last == lintOS
	}
	return true
}

// buildableConstraints evaluates the file's //go:build line (if any)
// against the lint platform. Unknown tags — release tags, cgo, custom
// tags like purego — evaluate false, matching a default `go build`.
func buildableConstraints(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true // malformed: let the type checker report it
			}
			return expr.Eval(func(tag string) bool {
				return tag == lintOS || tag == lintArch || tag == "gc" || tag == "unix" && unixOS(lintOS)
			})
		}
	}
	return true
}

// unixOS mirrors go/build's unix tag set for the OSes in knownOSes.
func unixOS(os string) bool {
	switch os {
	case "aix", "android", "darwin", "dragonfly", "freebsd", "illumos", "ios", "linux", "netbsd", "openbsd", "solaris":
		return true
	}
	return false
}

// modulePath reads the module path from dir/go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %s is not a module root: %w", dir, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", dir)
}

// packageDirs lists every directory under root that can hold a package,
// skipping hidden dirs, testdata trees, and the models directory.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

func sortedKeys(m map[string]*Package) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

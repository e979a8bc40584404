package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches expected-diagnostic comments: // want "pattern" ["pattern"...]
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	line    int
	pattern *regexp.Regexp
	matched bool
}

// loadExpectations scans a fixture file for `// want "..."` comments.
func loadExpectations(t *testing.T, path string) []*expectation {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []*expectation
	for i, line := range strings.Split(string(data), "\n") {
		idx := strings.Index(line, "// want ")
		if idx < 0 {
			continue
		}
		for _, m := range wantRe.FindAllStringSubmatch(line[idx:], -1) {
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
			}
			out = append(out, &expectation{line: i + 1, pattern: re})
		}
	}
	return out
}

// runGolden type-checks testdata/src/<name> and diffs the analyzer's
// diagnostics against the fixture's want comments.
func runGolden(t *testing.T, an *Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", an.Name)
	pkg, err := LoadDir(dir, "fixture/"+an.Name)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var expects []*expectation
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".go") {
			expects = append(expects, loadExpectations(t, filepath.Join(dir, e.Name()))...)
		}
	}
	if len(expects) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}
	diags := LintPackage(pkg, []*Package{pkg}, an)
	for _, d := range diags {
		found := false
		for _, exp := range expects {
			if !exp.matched && exp.line == d.Line && exp.pattern.MatchString(d.Message) {
				exp.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, exp := range expects {
		if !exp.matched {
			t.Errorf("%s: expected diagnostic at line %d matching %q, got none",
				an.Name, exp.line, exp.pattern)
		}
	}
}

func TestGoldenFiles(t *testing.T) {
	for _, an := range Analyzers() {
		t.Run(an.Name, func(t *testing.T) { runGolden(t, an) })
	}
}

// TestRealTreeClean is the CI invariant: the repository itself —
// including its _test.go files — must stay free of non-allowlisted
// diagnostics (`make check` enforces the same through cmd/dqnlint).
func TestRealTreeClean(t *testing.T) {
	mod, err := Load(filepath.Join("..", ".."), true)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(mod.Pkgs) < 15 {
		t.Fatalf("loaded only %d packages; loader lost part of the tree", len(mod.Pkgs))
	}
	diags := Lint(mod, Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestSyntheticViolation proves the end-to-end wiring: seeding a
// violation into a watched package of a scratch module makes Lint
// report it, and an allow directive on the same site suppresses it.
func TestSyntheticViolation(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, "go.mod"), "module scratchmod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(root, "internal", "core", "bad.go"), `package core

import "time"

func Stamp() time.Time {
	return time.Now()
}
`)
	mod, err := Load(root, false)
	if err != nil {
		t.Fatalf("loading scratch module: %v", err)
	}
	diags := Lint(mod, Analyzers())
	if len(diags) != 1 || diags[0].Analyzer != "detguard" || diags[0].Line != 6 {
		t.Fatalf("want exactly one detguard diagnostic at line 6, got %v", diags)
	}

	// The same call outside a watched package is not reported.
	writeFile(t, filepath.Join(root, "internal", "core", "bad.go"), `package clockutil

func Noop() {}
`)
	writeFile(t, filepath.Join(root, "internal", "clockutil", "clock.go"), `package clockutil

import "time"

func Stamp() time.Time {
	return time.Now()
}
`)
	// Rebuild the core package as something inert so only clockutil has
	// the call.
	mod, err = Load(root, false)
	if err != nil {
		t.Fatalf("reloading scratch module: %v", err)
	}
	if diags := Lint(mod, Analyzers()); len(diags) != 0 {
		t.Fatalf("unwatched package should be clean, got %v", diags)
	}

	// An allow directive with a justification suppresses the original.
	writeFile(t, filepath.Join(root, "internal", "core", "bad.go"), `package core

import "time"

func Stamp() time.Time {
	//dqnlint:allow detguard scratch test justification
	return time.Now()
}
`)
	mod, err = Load(root, false)
	if err != nil {
		t.Fatalf("reloading scratch module: %v", err)
	}
	if diags := Lint(mod, Analyzers()); len(diags) != 0 {
		t.Fatalf("allow directive should suppress the diagnostic, got %v", diags)
	}

	// A directive naming no analyzer (a deleted or misspelled one) and a
	// directive without a justification are findings themselves.
	writeFile(t, filepath.Join(root, "internal", "clockutil", "clock.go"), `package clockutil

func Noop() {
	//dqnlint:allow detgaurd a misspelled (or deleted) analyzer name
	_ = 0
	//dqnlint:allow detguard
	_ = 1
}
`)
	mod, err = Load(root, false)
	if err != nil {
		t.Fatalf("reloading scratch module: %v", err)
	}
	diags = Lint(mod, Analyzers())
	if len(diags) != 2 || diags[0].Analyzer != "allow" || diags[0].Line != 4 ||
		!strings.Contains(diags[0].Message, `"detgaurd"`) ||
		diags[1].Analyzer != "allow" || diags[1].Line != 6 ||
		!strings.Contains(diags[1].Message, "no justification") {
		t.Fatalf("want the unknown name at line 4 and the missing justification at line 6, got %v", diags)
	}
}

func TestWatches(t *testing.T) {
	if !GoGuard.Watches("internal/anything") || !GoGuard.Watches("") {
		t.Error("an analyzer without a package list must watch everything")
	}
	if FloatEq.Watches("internal/core") {
		t.Error("floateq must not watch internal/core")
	}
	if !FloatEq.Watches("internal/linalg") {
		t.Error("floateq must watch internal/linalg")
	}
	if !DetGuard.Watches("internal/core") || !DetGuard.Watches("internal/metrics") ||
		!DetGuard.Watches("internal/experiments") || DetGuard.Watches("internal/serve") {
		t.Error("detguard watches the simulation and evaluation packages only")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "floateq", File: "x.go", Line: 3, Col: 7, Message: "m"}
	if got, want := d.String(), "x.go:3:7: [floateq] m"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Ensure fixtures stay gofmt-parseable as plain Go so editors and the
// loader agree on positions (guards against fixtures rotting into
// pseudo-code).
func TestFixturesAreLoadable(t *testing.T) {
	for _, an := range Analyzers() {
		dir := filepath.Join("testdata", "src", an.Name)
		if _, err := LoadDir(dir, "fixture/"+an.Name); err != nil {
			t.Errorf("%s: %v", dir, err)
		}
	}
}

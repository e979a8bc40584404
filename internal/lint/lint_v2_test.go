package lint

import (
	"path/filepath"
	"testing"
)

// v2Case seeds one violation for a flow-aware analyzer into a scratch
// module: bad triggers exactly one diagnostic, allowed is the same code
// with a justified //dqnlint:allow and must be clean. The pair proves
// both the detection and the suppression path end to end.
type v2Case struct {
	analyzer string
	pkgDir   string // module-relative package directory
	bad      string
	allowed  string
}

var v2Cases = []v2Case{
	{
		analyzer: "locksafe",
		pkgDir:   "internal/core",
		bad: `package core

import (
	"sync"
	"time"
)

var mu sync.Mutex

func Sleepy() {
	mu.Lock()
	time.Sleep(time.Millisecond)
	mu.Unlock()
}
`,
		allowed: `package core

import (
	"sync"
	"time"
)

var mu sync.Mutex

func Sleepy() {
	mu.Lock()
	//dqnlint:allow locksafe scratch test justification
	time.Sleep(time.Millisecond)
	mu.Unlock()
}
`,
	},
}

// TestV2AllowSuppression proves each flow-aware analyzer both fires on
// a seeded violation and honors a justified allow directive.
func TestV2AllowSuppression(t *testing.T) {
	byName := map[string]*Analyzer{}
	for _, an := range Analyzers() {
		byName[an.Name] = an
	}
	for _, tc := range v2Cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			an := byName[tc.analyzer]
			if an == nil {
				t.Fatalf("analyzer %s not registered", tc.analyzer)
			}
			root := t.TempDir()
			writeFile(t, filepath.Join(root, "go.mod"), "module scratchmod\n\ngo 1.22\n")
			src := filepath.Join(root, filepath.FromSlash(tc.pkgDir), "code.go")

			writeFile(t, src, tc.bad)
			mod, err := Load(root, false)
			if err != nil {
				t.Fatalf("loading scratch module: %v", err)
			}
			diags := Lint(mod, []*Analyzer{an})
			if len(diags) != 1 || diags[0].Analyzer != tc.analyzer {
				t.Fatalf("want exactly one %s diagnostic, got %v", tc.analyzer, diags)
			}

			writeFile(t, src, tc.allowed)
			mod, err = Load(root, false)
			if err != nil {
				t.Fatalf("reloading scratch module: %v", err)
			}
			if diags := Lint(mod, []*Analyzer{an}); len(diags) != 0 {
				t.Fatalf("allow directive should suppress the %s diagnostic, got %v", tc.analyzer, diags)
			}
		})
	}
}

package lint

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
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
		analyzer: "hotalloc",
		pkgDir:   "internal/core",
		bad: `package core

func PredictDevice(dst []int) []int {
	return grow(dst)
}

func grow(dst []int) []int {
	return make([]int, len(dst)+1)
}
`,
		allowed: `package core

func PredictDevice(dst []int) []int {
	return grow(dst)
}

func grow(dst []int) []int {
	//dqnlint:allow hotalloc scratch test justification
	return make([]int, len(dst)+1)
}
`,
	},
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

// TestWriteSARIF validates the structural contract of the SARIF output:
// schema and version fields, one rule per analyzer, one result per
// diagnostic with a repo-relative forward-slashed URI.
func TestWriteSARIF(t *testing.T) {
	analyzers := Analyzers()
	root := string(filepath.Separator) + filepath.Join("repo", "root")
	diags := []Diagnostic{
		{Analyzer: "hotalloc", File: filepath.Join(root, "internal", "tensor", "arena.go"), Line: 12, Col: 3, Message: "hot path: make allocates"},
		{Analyzer: "locksafe", File: filepath.Join(root, "internal", "obs", "obs.go"), Line: 40, Col: 2, Message: "blocking op under mutex"},
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, root, analyzers, diags); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Fatalf("version/schema = %q / %q, want 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("want exactly one run, got %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "dqnlint" {
		t.Fatalf("driver name = %q, want dqnlint", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(analyzers) {
		t.Fatalf("want %d rules (one per analyzer), got %d", len(analyzers), len(run.Tool.Driver.Rules))
	}
	if len(run.Results) != len(diags) {
		t.Fatalf("want %d results, got %d", len(diags), len(run.Results))
	}
	for i, r := range run.Results {
		if r.RuleID != diags[i].Analyzer {
			t.Errorf("result %d ruleId = %q, want %q", i, r.RuleID, diags[i].Analyzer)
		}
		if got := run.Tool.Driver.Rules[r.RuleIndex].ID; got != r.RuleID {
			t.Errorf("result %d ruleIndex points at rule %q, want %q", i, got, r.RuleID)
		}
		if r.Level != "error" {
			t.Errorf("result %d level = %q, want error", i, r.Level)
		}
		uri := r.Locations[0].PhysicalLocation.ArtifactLocation.URI
		if strings.Contains(uri, "\\") || strings.HasPrefix(uri, "/") {
			t.Errorf("result %d URI %q is not repo-relative forward-slashed", i, uri)
		}
		if r.Locations[0].PhysicalLocation.Region.StartLine != diags[i].Line {
			t.Errorf("result %d startLine = %d, want %d", i,
				r.Locations[0].PhysicalLocation.Region.StartLine, diags[i].Line)
		}
	}
}

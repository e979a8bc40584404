// Command dqnlint runs the repository's static-analysis suite: six
// analyzers enforcing the invariants DeepQueueNet's correctness rests
// on but the compiler cannot check — four per-file checks (IRSA
// bit-determinism, float-safe numeric kernels, goroutine panic
// isolation, intact error chains) and two cross-package flow-aware
// checks (zero-alloc hot path, lock discipline). It is stdlib-only and
// wired into `make lint` / `make check`.
//
// Usage:
//
//	dqnlint [flags] [module-root]
//
// -sarif emits SARIF 2.1.0 for GitHub code scanning.
//
// Exit status: 0 when no diagnostics, 1 when any non-allowlisted
// diagnostic fires, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"deepqueuenet/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("dqnlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut  = fs.Bool("json", false, "emit diagnostics as a JSON array")
		sarifOut = fs.Bool("sarif", false, "emit diagnostics as SARIF 2.1.0 (GitHub code scanning)")
		enable   = fs.String("enable", "", "comma-separated analyzers to run (default: all)")
		disable  = fs.String("disable", "", "comma-separated analyzers to skip")
		tests    = fs.Bool("tests", false, "also lint in-package _test.go files")
		list     = fs.Bool("list", false, "list analyzers and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: dqnlint [flags] [module-root]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(stderr, "dqnlint:", err)
		return 2
	}
	if *list {
		for _, an := range analyzers {
			scope := "all packages"
			if len(an.Packages) > 0 {
				scope = strings.Join(an.Packages, ", ")
			}
			fmt.Fprintf(stdout, "%-10s %s (scope: %s)\n", an.Name, an.Doc, scope)
		}
		return 0
	}
	root := "."
	switch fs.NArg() {
	case 0:
	case 1:
		root = fs.Arg(0)
	default:
		fs.Usage()
		return 2
	}

	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "dqnlint: -json and -sarif are mutually exclusive")
		return 2
	}

	mod, err := lint.Load(root, *tests)
	if err != nil {
		fmt.Fprintln(stderr, "dqnlint:", err)
		return 2
	}
	diags := lint.Lint(mod, analyzers)

	switch {
	case *sarifOut:
		if err := lint.WriteSARIF(stdout, mod.Dir, analyzers, diags); err != nil {
			fmt.Fprintln(stderr, "dqnlint:", err)
			return 2
		}
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "dqnlint:", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(stderr, "dqnlint: %d diagnostic(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers applies -enable / -disable to the full analyzer set.
func selectAnalyzers(enable, disable string) ([]*lint.Analyzer, error) {
	byName := map[string]*lint.Analyzer{}
	all := lint.Analyzers()
	for _, an := range all {
		byName[an.Name] = an
	}
	valid := func(list string) ([]string, error) {
		if list == "" {
			return nil, nil
		}
		names := strings.Split(list, ",")
		for _, n := range names {
			if byName[n] == nil {
				known := make([]string, 0, len(all))
				for _, an := range all {
					known = append(known, an.Name)
				}
				sort.Strings(known)
				return nil, fmt.Errorf("unknown analyzer %q (known: %s)", n, strings.Join(known, ", "))
			}
		}
		return names, nil
	}
	en, err := valid(enable)
	if err != nil {
		return nil, err
	}
	dis, err := valid(disable)
	if err != nil {
		return nil, err
	}
	selected := all
	if len(en) > 0 {
		selected = nil
		for _, n := range en {
			selected = append(selected, byName[n])
		}
	}
	if len(dis) > 0 {
		var kept []*lint.Analyzer
		for _, an := range selected {
			skip := false
			for _, n := range dis {
				if an.Name == n {
					skip = true
					break
				}
			}
			if !skip {
				kept = append(kept, an)
			}
		}
		selected = kept
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return selected, nil
}

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
// -tests also lints in-package _test.go files; -sarif emits SARIF 2.1.0
// for GitHub code scanning.
//
// Exit status: 0 when no diagnostics, 1 when any non-allowlisted
// diagnostic fires, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"deepqueuenet/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("dqnlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sarifOut = fs.Bool("sarif", false, "emit diagnostics as SARIF 2.1.0 (GitHub code scanning)")
		tests    = fs.Bool("tests", false, "also lint in-package _test.go files")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: dqnlint [flags] [module-root]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
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

	mod, err := lint.Load(root, *tests)
	if err != nil {
		fmt.Fprintln(stderr, "dqnlint:", err)
		return 2
	}
	analyzers := lint.Analyzers()
	diags := lint.Lint(mod, analyzers)

	if *sarifOut {
		if err := lint.WriteSARIF(stdout, mod.Dir, analyzers, diags); err != nil {
			fmt.Fprintln(stderr, "dqnlint:", err)
			return 2
		}
	} else {
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

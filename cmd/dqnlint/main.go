// Command dqnlint runs the repository's static-analysis suite: five
// analyzers enforcing the invariants DeepQueueNet's correctness rests
// on but neither the compiler nor the tests check — IRSA
// bit-determinism, float-safe numeric kernels, goroutine panic
// isolation, intact error chains and lock discipline. It is stdlib-only
// and wired into `make lint` / `make check`.
//
// Usage:
//
//	dqnlint [-tests] [module-root]
//
// -tests also lints in-package _test.go files.
//
// Exit status: 0 when no diagnostics, 1 when any non-allowlisted
// diagnostic fires (a malformed //dqnlint:allow directive is one), 2 on
// usage or load errors.
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
	tests := fs.Bool("tests", false, "also lint in-package _test.go files")
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
	diags := lint.Lint(mod, lint.Analyzers())
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "dqnlint: %d diagnostic(s)\n", len(diags))
		return 1
	}
	return 0
}

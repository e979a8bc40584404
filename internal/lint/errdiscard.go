package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ErrDiscard keeps the error chain intact: PR 1's failure semantics
// depend on errors.Is/As seeing through every wrap. It flags two leaks:
// assignments that discard an error into the blank identifier (`_ =`),
// and fmt.Errorf calls that format an error argument without the %w
// verb (which severs the chain that guard.ErrCanceled, ShardError, and
// friends are matched through).
var ErrDiscard = &Analyzer{
	Name: "errdiscard",
	Run:  runErrDiscard,
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func runErrDiscard(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkBlankErrAssign(pass, n)
			case *ast.CallExpr:
				checkErrorfWrap(pass, n)
			}
			return true
		})
	}
}

// checkBlankErrAssign flags assignments whose left-hand sides are all
// blank and that drop at least one error value.
func checkBlankErrAssign(pass *Pass, as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
			return
		}
	}
	info := pass.Pkg.Info
	for _, rhs := range as.Rhs {
		tv, ok := info.Types[rhs]
		if !ok {
			continue
		}
		if typeCarriesError(tv.Type) {
			pass.Reportf(as.Pos(),
				"discarded error: `_ =` drops an error value (handle it, or //dqnlint:allow with why it cannot fail)")
			return
		}
	}
}

func typeCarriesError(t types.Type) bool {
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface)
}

// checkErrorfWrap flags fmt.Errorf calls that pass an error argument
// but whose constant format string contains no %w verb.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	info := pass.Pkg.Info
	fn := calleeFunc(info, call)
	if fn == nil || !isPkgFunc(fn, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	ftv, ok := info.Types[call.Args[0]]
	if !ok || ftv.Value == nil || ftv.Value.Kind() != constant.String {
		return
	}
	format := constant.StringVal(ftv.Value)
	if strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		tv, ok := info.Types[arg]
		if ok && isErrorType(tv.Type) {
			pass.Reportf(call.Pos(),
				"error wrapped without %%w: fmt.Errorf formats an error argument with a non-wrapping verb (errors.Is/As cannot see through it)")
			return
		}
	}
}

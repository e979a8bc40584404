package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockSafe machine-checks the PR 5 lock discipline: every sync.Mutex /
// sync.RWMutex Lock must be released on every return path, and no
// blocking operation (channel send/receive, select, sleep, file or
// network IO, dynamic callbacks) may run while a lock is held. The
// "snapshot under the lock, operate after Unlock" rule that keeps
// GaugeFuncs out of the registry lock becomes a compile-time fact
// instead of a review checklist item. A statically called module
// function or method is followed into its body, transitively: a helper
// that blocks is reported at the call made under the lock, as "calls
// X, which does Y". Both are defects that neither the race detector nor
// the serving suites see unless a test happens to deadlock on them; a
// lock copied by value is left to go vet's copylocks check.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Run:  runLockSafe,
}

func runLockSafe(pass *Pass) {
	calls := &blockingCallees{graph: pass.Ctx.Graph(), memo: map[*types.Func]string{}}
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &lockWalker{pass: pass, info: pass.Pkg.Info, calls: calls}
			st := newLockState()
			w.stmt(st, fd.Body)
			w.checkExit(st, fd.Body.End())
			// Function literals get their own walk: their bodies run on
			// a different frame with their own lock discipline.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					ls := newLockState()
					w.stmt(ls, lit.Body)
					w.checkExit(ls, lit.Body.End())
				}
				return true
			})
		}
	}
}

// heldLock tracks one acquired mutex on the current abstract path.
type heldLock struct {
	pos      token.Pos // the Lock call
	deferred bool      // a deferred Unlock releases it at exit
	maybe    bool      // held on some but not all merged paths
}

type lockState struct {
	held       map[string]*heldLock
	terminated bool
}

func newLockState() *lockState { return &lockState{held: map[string]*heldLock{}} }

func (s *lockState) clone() *lockState {
	c := newLockState()
	c.terminated = s.terminated
	for k, v := range s.held {
		cp := *v
		c.held[k] = &cp
	}
	return c
}

// merge folds the post-states of sibling branches into s. Terminated
// branches (returned, panicked) drop out; a lock held on only some
// surviving branches becomes maybe-held (still flags blocking ops, no
// longer flags return leaks — the must/may split keeps both checks
// low-noise).
func mergeLockStates(states []*lockState) *lockState {
	var live []*lockState
	for _, st := range states {
		if st != nil && !st.terminated {
			live = append(live, st)
		}
	}
	if len(live) == 0 {
		out := newLockState()
		out.terminated = true
		return out
	}
	out := newLockState()
	counts := map[string]int{}
	for _, st := range live {
		for k, v := range st.held {
			if cur := out.held[k]; cur == nil {
				cp := *v
				out.held[k] = &cp
			} else {
				cur.deferred = cur.deferred && v.deferred
				cur.maybe = cur.maybe || v.maybe
			}
			counts[k]++
		}
	}
	for k, n := range counts {
		if n < len(live) {
			out.held[k].maybe = true
		}
	}
	return out
}

type lockWalker struct {
	pass  *Pass
	info  *types.Info
	calls *blockingCallees
}

// mutexOp classifies a call as a lock or unlock on a sync.Mutex /
// sync.RWMutex receiver, returning a stable key for the mutex
// expression ("r.mu", "r.mu#r" for the read side).
func mutexOp(info *types.Info, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	key = types.ExprString(sel.X)
	if name == "RLock" || name == "RUnlock" {
		key += "#r"
	}
	if name == "Lock" || name == "RLock" {
		return key, "lock", true
	}
	return key, "unlock", true
}

func (w *lockWalker) stmt(st *lockState, s ast.Stmt) {
	if st.terminated || s == nil {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, inner := range s.List {
			w.stmt(st, inner)
			if st.terminated {
				return
			}
		}
	case *ast.ExprStmt:
		if call, ok := unparen(s.X).(*ast.CallExpr); ok {
			if key, op, ok := mutexOp(w.info, call); ok {
				if op == "lock" {
					st.held[key] = &heldLock{pos: call.Pos()}
				} else {
					delete(st.held, key)
				}
				return
			}
			if isPanicCall(w.info, call) || w.isTerminalCall(call) {
				st.terminated = true
				return
			}
		}
		w.blockingScan(st, s.X)
	case *ast.DeferStmt:
		w.deferStmt(st, s)
	case *ast.ReturnStmt:
		w.blockingScan(st, s)
		w.checkExit(st, s.Pos())
		st.terminated = true
	case *ast.SendStmt:
		w.blockingScan(st, s.Chan)
		w.blockingScan(st, s.Value)
		w.reportBlocking(st, s.Arrow, "channel send")
	case *ast.AssignStmt:
		w.blockingScan(st, s)
	case *ast.DeclStmt, *ast.IncDecStmt:
		w.blockingScan(st, s)
	case *ast.IfStmt:
		w.stmt(st, s.Init)
		w.blockingScan(st, s.Cond)
		thenSt := st.clone()
		w.stmt(thenSt, s.Body)
		elseSt := st.clone()
		if s.Else != nil {
			w.stmt(elseSt, s.Else)
		}
		*st = *mergeLockStates([]*lockState{thenSt, elseSt})
	case *ast.ForStmt:
		w.stmt(st, s.Init)
		w.blockingScan(st, s.Cond)
		body := st.clone()
		w.stmt(body, s.Body)
		w.stmt(body, s.Post)
		*st = *mergeLockStates([]*lockState{st, body})
	case *ast.RangeStmt:
		w.blockingScan(st, s.X)
		if tv, ok := w.info.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.reportBlocking(st, s.For, "range over channel")
			}
		}
		body := st.clone()
		w.stmt(body, s.Body)
		*st = *mergeLockStates([]*lockState{st, body})
	case *ast.SwitchStmt:
		w.stmt(st, s.Init)
		w.blockingScan(st, s.Tag)
		w.caseMerge(st, s.Body, hasDefaultClause(s.Body))
	case *ast.TypeSwitchStmt:
		w.stmt(st, s.Init)
		w.caseMerge(st, s.Body, hasDefaultClause(s.Body))
	case *ast.SelectStmt:
		if !hasDefaultClause(s.Body) {
			w.reportBlocking(st, s.Select, "select without default")
		}
		w.caseMerge(st, s.Body, true) // select always takes exactly one clause
	case *ast.GoStmt:
		// The spawned goroutine runs on its own frame with its own
		// discipline; launching it does not block.
	case *ast.LabeledStmt:
		w.stmt(st, s.Stmt)
	case *ast.BranchStmt:
		// break/continue/goto leave this straight-line path; treating
		// them as path exits avoids false leak merges at loop tails.
		st.terminated = true
	}
}

// caseMerge walks each case clause of body on a cloned state and merges
// the survivors; when no default exists the fall-through (entry) state
// survives too.
func (w *lockWalker) caseMerge(st *lockState, body *ast.BlockStmt, exhaustive bool) {
	states := []*lockState{}
	if !exhaustive {
		states = append(states, st.clone())
	}
	for _, c := range body.List {
		cl := st.clone()
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, s := range c.Body {
				w.stmt(cl, s)
				if cl.terminated {
					break
				}
			}
		case *ast.CommClause:
			for _, s := range c.Body {
				w.stmt(cl, s)
				if cl.terminated {
					break
				}
			}
		}
		states = append(states, cl)
	}
	*st = *mergeLockStates(states)
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				return true
			}
		case *ast.CommClause:
			if c.Comm == nil {
				return true
			}
		}
	}
	return false
}

// deferStmt records deferred unlocks (directly or through a literal).
func (w *lockWalker) deferStmt(st *lockState, d *ast.DeferStmt) {
	markUnlock := func(call *ast.CallExpr) {
		if key, op, ok := mutexOp(w.info, call); ok && op == "unlock" {
			if li := st.held[key]; li != nil {
				li.deferred = true
			}
		}
	}
	markUnlock(d.Call)
	if lit, ok := unparen(d.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				markUnlock(call)
			}
			return true
		})
	}
}

// checkExit reports locks still must-held (and not deferred-released)
// when control leaves the function at pos.
func (w *lockWalker) checkExit(st *lockState, pos token.Pos) {
	if st.terminated {
		return
	}
	for key, li := range st.held {
		if li.deferred || li.maybe {
			continue
		}
		w.pass.Reportf(pos, "%s locked at line %d is not released on this return path (missing defer %s.Unlock()?)",
			lockDisplay(key), w.pass.Pkg.Fset.Position(li.pos).Line, lockDisplay(key))
	}
}

// blockingScan reports blocking operations inside node while any lock
// is held. Function literal bodies are skipped: defining a callback
// under a lock is fine, invoking one is not.
func (w *lockWalker) blockingScan(st *lockState, node ast.Node) {
	if node == nil || len(st.held) == 0 {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.reportBlocking(st, n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if _, _, ok := mutexOp(w.info, n); ok {
				return true
			}
			if reason := blockingCall(w.info, n); reason != "" {
				w.reportBlocking(st, n.Pos(), reason)
				return true
			}
			if fn := calleeFunc(w.info, n); fn != nil {
				if does := w.calls.of(fn); does != "" {
					w.reportBlocking(st, n.Pos(), "calls "+funcDisplay(fn)+", which "+does)
				}
			}
		}
		return true
	})
}

// blockingCall classifies a call as a blocking operation: sleeps,
// waits, file/network IO, io-interface writes, or a dynamic call
// through a function value (a user callback the analyzer cannot see
// into).
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	if isBuiltinCall(info, call) || isPanicCall(info, call) {
		return ""
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		if _, ok := unparen(call.Fun).(*ast.FuncLit); ok {
			return "" // immediately-invoked literal: body walked in place
		}
		if tv, ok := info.Types[unparen(call.Fun)]; ok {
			if _, isSig := tv.Type.Underlying().(*types.Signature); isSig {
				return "dynamic call through a function value (user callback)"
			}
		}
		return ""
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	switch pkgPath {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "sync":
		if fn.Name() == "Wait" {
			return "sync wait"
		}
	case "os":
		if osBlockingFuncs[fn.Name()] {
			return "os." + fn.Name() + " file IO"
		}
		sig := fn.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil && osBlockingMethods[fn.Name()] {
			return "(*os.File)." + fn.Name() + " file IO"
		}
	case "net", "net/http":
		return pkgPath + " network IO"
	case "io", "bufio":
		if ioBlockingMethods[fn.Name()] {
			return pkgPath + "." + fn.Name() + " IO"
		}
	}
	// A call through an io.Reader/io.Writer-style interface does IO of
	// unknown latency.
	if isInterfaceMethod(fn) && fn.Pkg() != nil && fn.Pkg().Path() == "io" {
		return "io interface call"
	}
	return ""
}

// blockingCallees answers, for each module function with a body,
// whether calling it blocks: its body, or a function it calls
// statically, transitively, does one of the operations that blockingScan
// reports. One instance serves one package's pass.
type blockingCallees struct {
	graph *CallGraph
	memo  map[*types.Func]string // "" also while fn is being scanned, so a cycle adds nothing
}

// of returns what calling fn does that blocks, as "does <operation>"
// or "calls <function>, which …" along the first blocking chain in
// source order, or "" when nothing in it blocks or fn has no body in
// the module (a stdlib function, an interface method).
func (b *blockingCallees) of(fn *types.Func) string {
	fn = fn.Origin()
	if does, ok := b.memo[fn]; ok {
		return does
	}
	b.memo[fn] = ""
	decl := b.graph.Decl[fn]
	if decl == nil {
		return ""
	}
	does := b.scan(b.graph.PkgOf[fn].Info, decl.Body)
	b.memo[fn] = does
	return does
}

// scan returns the first blocking operation of body in source order,
// as of describes it. Function literals and go statements are skipped,
// as in blockingScan: they do not run on the caller's frame.
func (b *blockingCallees) scan(info *types.Info, body ast.Node) string {
	does := ""
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if does != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SendStmt:
			does = "does channel send"
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				does = "does channel receive"
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					does = "does range over channel"
				}
			}
		case *ast.SelectStmt:
			if !hasDefaultClause(n.Body) {
				does = "does select without default"
				return false
			}
			// A select with a default does not wait: its comm clauses
			// are its own non-blocking tries, only their bodies count.
			for _, c := range n.Body.List {
				for _, s := range c.(*ast.CommClause).Body {
					ast.Inspect(s, visit)
				}
			}
			return false
		case *ast.CallExpr:
			if _, _, ok := mutexOp(info, n); ok {
				return true
			}
			if reason := blockingCall(info, n); reason != "" {
				does = "does " + reason
			} else if fn := calleeFunc(info, n); fn != nil {
				if inner := b.of(fn); inner != "" {
					does = "calls " + funcDisplay(fn) + ", which " + inner
				}
			}
		}
		return does == ""
	}
	ast.Inspect(body, visit)
	return does
}

// funcDisplay names a function as a diagnostic shows it:
// "atomicfile.WriteFile", "(*plane.Metrics).observeFlush".
func funcDisplay(fn *types.Func) string {
	qual := func(p *types.Package) string { return p.Name() }
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return "(" + types.TypeString(recv.Type(), qual) + ")." + fn.Name()
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

var osBlockingFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "Rename": true, "Remove": true,
	"RemoveAll": true, "Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"ReadDir": true, "Stat": true, "Lstat": true, "Truncate": true,
	"Chmod": true, "Link": true, "Symlink": true,
}

var osBlockingMethods = map[string]bool{
	"Read": true, "Write": true, "WriteString": true, "ReadAt": true,
	"WriteAt": true, "Sync": true, "Close": true, "Seek": true, "Stat": true,
}

var ioBlockingMethods = map[string]bool{
	"Copy": true, "CopyN": true, "ReadAll": true, "WriteString": true,
	"Flush": true, "ReadFull": true,
}

func (w *lockWalker) reportBlocking(st *lockState, pos token.Pos, what string) {
	for key, li := range st.held {
		w.pass.Reportf(pos, "%s while holding %s (locked at line %d): snapshot under the lock, then operate after Unlock (PR 5 rule)",
			what, lockDisplay(key), w.pass.Pkg.Fset.Position(li.pos).Line)
		return // one report per site is enough
	}
}

// isTerminalCall reports calls that never return: os.Exit, log.Fatal*,
// runtime.Goexit, and testing's Fatal/Skip family (which call Goexit).
func (w *lockWalker) isTerminalCall(call *ast.CallExpr) bool {
	fn := calleeFunc(w.info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "os":
		return fn.Name() == "Exit"
	case "runtime":
		return fn.Name() == "Goexit"
	case "log":
		return fn.Name() == "Fatal" || fn.Name() == "Fatalf" || fn.Name() == "Fatalln"
	case "testing":
		switch fn.Name() {
		case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
			return true
		}
	}
	return false
}

// lockDisplay strips the internal read-lock marker for messages.
func lockDisplay(key string) string {
	if len(key) > 2 && key[len(key)-2:] == "#r" {
		return key[:len(key)-2] + " (read lock)"
	}
	return key
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ldprecover/internal/lint/analysis"
)

// Failstop enforces the persistence fail-stop convention (DESIGN.md §6,
// §10): an error returned by a persist API — WAL append/seal, snapshot
// write (per seal and per membership change), lease operations — must
// either propagate to the caller or reach a fail-stop sink (fatalc via
// reportFatal, panic, log.Fatal). It must never be dropped: a server that keeps accepting
// reports after its WAL stopped persisting is silently violating the
// durability contract the crash-restart e2es pin. The PR 4 review
// hardening ("failed POST /v1/seal fail-stops the server like a failed
// ticker seal") is the motivating incident.
var Failstop = &analysis.Analyzer{
	Name: "failstop",
	Doc: "errors from persist APIs must propagate or reach a fail-stop " +
		"sink, never be dropped",
	Run: runFailstop,
}

// persistPathFragment identifies the persistence layer by import path.
const persistPathFragment = "internal/persist"

func runFailstop(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFailstopFunc(pass, fd.Body)
		}
	}
	return nil
}

// isPersistErrCall reports whether call invokes a persist-API function
// whose last result is an error.
func isPersistErrCall(info *types.Info, call *ast.CallExpr) bool {
	f := callee(info, call)
	if f == nil || f.Pkg() == nil || !strings.Contains(f.Pkg().Path(), persistPathFragment) {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func checkFailstopFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	inspectStack(body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isPersistErrCall(info, call) {
			return true
		}
		name := callName(call)
		// Classify by the statement context the call appears in.
		parent := nearestNonParen(stack)
		switch p := parent.(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "error from %s is dropped; propagate it or fail-stop", name)
		case *ast.GoStmt:
			pass.Reportf(call.Pos(), "go %s discards the error; check it in the goroutine", name)
		case *ast.DeferStmt:
			pass.Reportf(call.Pos(), "defer %s discards the error; use a checked wrapper", name)
		case *ast.AssignStmt:
			checkAssignedError(pass, stack, p, call, name)
		case *ast.ValueSpec:
			checkSpecError(pass, stack, p, call, name)
		default:
			// Return statement, call argument, comparison, send: the
			// error value flows onward — that is propagation.
		}
		return true
	})
}

// callName renders the callee for diagnostics.
func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "persist call"
}

// nearestNonParen returns the innermost ancestor that is not a
// parenthesis wrapper.
func nearestNonParen(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		return stack[i]
	}
	return nil
}

// checkAssignedError locates the variable the call's error result is
// assigned to and verifies it is meaningfully consumed.
func checkAssignedError(pass *analysis.Pass, stack []ast.Node, as *ast.AssignStmt, call *ast.CallExpr, name string) {
	// Which LHS holds the error? Last result for x, err := f(); the
	// matching position for 1:1 assignments.
	var lhs ast.Expr
	if len(as.Rhs) == 1 {
		lhs = as.Lhs[len(as.Lhs)-1]
	} else {
		for i, r := range as.Rhs {
			if ast.Unparen(r) == call && i < len(as.Lhs) {
				lhs = as.Lhs[i]
			}
		}
	}
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return // assigned through a selector/index: stored, reachable
	}
	if id.Name == "_" {
		pass.Reportf(call.Pos(), "error from %s is discarded with _; propagate it or fail-stop", name)
		return
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	checkErrConsumed(pass, stack, call, obj, name)
}

// checkSpecError handles `var err = call` declarations.
func checkSpecError(pass *analysis.Pass, stack []ast.Node, vs *ast.ValueSpec, call *ast.CallExpr, name string) {
	if len(vs.Names) == 0 {
		return
	}
	id := vs.Names[len(vs.Names)-1]
	if id.Name == "_" {
		pass.Reportf(call.Pos(), "error from %s is discarded with _; propagate it or fail-stop", name)
		return
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		checkErrConsumed(pass, stack, call, obj, name)
	}
}

// checkErrConsumed scans the enclosing function for uses of the error
// variable after the call. The error is handled if any use lets the
// value flow onward (return, call argument, channel send, further
// assignment), or if a nil-comparison guards a block that terminates
// (return, panic, os.Exit, log.Fatal, a *fatal* helper). Otherwise the
// error dead-ends and the finding fires.
func checkErrConsumed(pass *analysis.Pass, stack []ast.Node, call *ast.CallExpr, obj types.Object, name string) {
	fnBody := enclosingFuncBody(stack)
	if fnBody == nil {
		return
	}
	info := pass.TypesInfo
	var (
		flows       bool // value escapes: return/arg/send/assign
		compared    bool // participates in a nil comparison
		comparisons []*ast.Ident
	)
	inspectStack(fnBody, func(n ast.Node, useStack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != obj || id.Pos() <= call.End() {
			return true
		}
		parent := nearestNonParen(useStack)
		if be, ok := parent.(*ast.BinaryExpr); ok && (be.Op == token.EQL || be.Op == token.NEQ) {
			compared = true
			comparisons = append(comparisons, id)
			return true
		}
		if as, ok := parent.(*ast.AssignStmt); ok {
			// Re-assignment of the variable itself is not a use of the
			// value; appearing on the RHS is.
			for _, l := range as.Lhs {
				if l == id {
					return true
				}
			}
		}
		flows = true
		return true
	})
	if flows {
		return
	}
	if !compared {
		pass.Reportf(call.Pos(), "error from %s is assigned but never checked; propagate it or fail-stop", name)
		return
	}
	// Comparison-only: at least one guarded branch must terminate.
	for _, cmpID := range comparisons {
		if guardedBranchTerminates(info, fnBody, cmpID) {
			return
		}
	}
	pass.Reportf(call.Pos(),
		"error from %s is checked but neither propagated nor fail-stopped (no return/panic/fatal in the guarded branch)",
		name)
}

// enclosingFuncBody returns the innermost function body on the stack.
// The walk is rooted at a FuncDecl's body, so when no FuncLit
// intervenes the root block itself is the enclosing body.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			return f.Body
		case *ast.FuncDecl:
			return f.Body
		}
	}
	if len(stack) > 0 {
		if b, ok := stack[0].(*ast.BlockStmt); ok {
			return b
		}
	}
	return nil
}

// guardedBranchTerminates finds the if/switch branch guarded by the
// comparison containing cmpID and reports whether it fail-stops or
// returns.
func guardedBranchTerminates(info *types.Info, fnBody *ast.BlockStmt, cmpID *ast.Ident) bool {
	var result bool
	inspectStack(fnBody, func(n ast.Node, stack []ast.Node) bool {
		if n != ast.Node(cmpID) {
			return true
		}
		// Walk outward to the guarding statement.
		for i := len(stack) - 1; i >= 0; i-- {
			switch s := stack[i].(type) {
			case *ast.IfStmt:
				if result = blockTerminates(info, s.Body); result {
					return false
				}
				if s.Else != nil {
					if blk, ok := s.Else.(*ast.BlockStmt); ok && blockTerminates(info, blk) {
						result = true
						return false
					}
				}
				return false
			case *ast.CaseClause:
				result = stmtsTerminate(info, s.Body)
				return false
			case *ast.ReturnStmt, *ast.CallExpr:
				// The comparison feeds a return or a call — flows.
				result = true
				return false
			}
		}
		return false
	})
	return result
}

func blockTerminates(info *types.Info, b *ast.BlockStmt) bool {
	return stmtsTerminate(info, b.List)
}

// stmtsTerminate reports whether a branch body fail-stops: it returns,
// panics, exits, or calls something fatal-shaped.
func stmtsTerminate(info *types.Info, stmts []ast.Stmt) bool {
	term := false
	for _, st := range stmts {
		ast.Inspect(st, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				term = true
			case *ast.SendStmt:
				// fatalc <- err style hand-off to a fail-stop channel.
				if chanNameContains(n.Chan, "fatal") {
					term = true
				}
			case *ast.CallExpr:
				switch fun := ast.Unparen(n.Fun).(type) {
				case *ast.Ident:
					if fun.Name == "panic" || isFatalName(fun.Name) {
						term = true
					}
				case *ast.SelectorExpr:
					if isFatalName(fun.Sel.Name) {
						term = true
					}
					if f := callee(info, n); isPkgFunc(f, "os", "Exit") {
						term = true
					}
				}
			}
			return !term
		})
		if term {
			return true
		}
	}
	return false
}

// isFatalName matches fail-stop sinks by name: Fatal, Fatalf, Fatalln,
// reportFatal, fatal…
func isFatalName(name string) bool {
	return strings.Contains(strings.ToLower(name), "fatal")
}

// chanNameContains reports whether the channel expression's terminal
// name contains the fragment.
func chanNameContains(expr ast.Expr, fragment string) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(e.Name), fragment)
	case *ast.SelectorExpr:
		return strings.Contains(strings.ToLower(e.Sel.Name), fragment)
	}
	return false
}

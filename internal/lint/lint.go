// Package lint is the ldplint suite: project-specific static analyzers
// that mechanically enforce the conventions this codebase's correctness
// arguments rest on (DESIGN.md §10). Each analyzer polices one
// invariant that was previously enforced only by review:
//
//	codecbounds — wire codecs bounds-check before allocating and
//	              verify CRC-32C before trusting fields
//	noalias     — accessors on mutex-guarded types publish copies,
//	              never internal slices/maps
//	exactfold   — the exact merge paths stay float-free; persisted
//	              floats round-trip via math.Float64bits
//	failstop    — persistence errors reach fatalc or propagate,
//	              never vanish
//	nowallclock — no wall-clock reads or nondeterministic randomness
//	              in deterministic paths without a justification
//
// Intentional exceptions are written down where they are taken:
//
//	//ldplint:allow <analyzer> <justification>
//
// on the offending line or the line above it. A directive without a
// justification is itself a finding.
package lint

import (
	"go/ast"
	"go/types"

	"ldprecover/internal/lint/analysis"
)

// Analyzers returns the full suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Codecbounds,
		Exactfold,
		Failstop,
		Noalias,
		Nowallclock,
	}
}

// callee resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for builtins, type conversions,
// and calls through function-typed values.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel]
		}
	}
	f, _ := obj.(*types.Func)
	return f
}

// isPkgFunc reports whether f is the named function (or method) of the
// package with the given import path.
func isPkgFunc(f *types.Func, pkgPath string, names ...string) bool {
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}

// isConversion reports whether call is a type conversion, returning
// the target type.
func isConversion(info *types.Info, call *ast.CallExpr) (types.Type, bool) {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil, false
	}
	return tv.Type, true
}

// basicKindIs reports whether t's core type is a basic type whose info
// bits include the given mask (e.g. types.IsFloat).
func basicKindIs(t types.Type, mask types.BasicInfo) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&mask != 0
}

// inspectStack walks root in source order, calling fn with each node
// and the stack of its ancestors (outermost first, not including n).
// Returning false prunes the subtree.
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			// Pruned subtrees get no closing f(nil) call, so the node
			// must not be pushed.
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// receiverObj returns the receiver variable of a method declaration,
// or nil.
func receiverObj(info *types.Info, fd *ast.FuncDecl) *types.Var {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	obj, _ := info.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	return obj
}

// namedRecvType returns the defined type of a method's receiver
// (unwrapping a pointer), or nil.
func namedRecvType(info *types.Info, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

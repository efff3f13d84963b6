package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"ldprecover/internal/lint/analysis"
)

// Exactfold enforces the exactness contract of the merge tree
// (DESIGN.md §10): the paths whose bit-identical-to-single-node
// guarantee rests on exact int64 addition — the tally merges, the
// epoch manager's SealCounts hand-off, and the WAL replay folds —
// must contain no floating-point arithmetic, float literals, or float
// conversions. One float anywhere in a fold re-introduces rounding, and
// with it order-dependence: the cluster/tree equivalence e2es would
// only catch it for the shapes they happen to run. Additionally,
// persisted snapshot floats must round-trip through math.Float64bits /
// Float64frombits (the PR 4 "floats as raw bits" rule): a float↔integer
// *conversion* in internal/persist truncates the value instead of
// preserving its bit pattern.
var Exactfold = &analysis.Analyzer{
	Name: "exactfold",
	Doc: "exact merge paths must be float-free; persisted floats must " +
		"round-trip via math.Float64bits/Float64frombits",
	Run: runExactfold,
}

// exactScope names one family of exact-fold functions: package name,
// optional receiver type name, and a function-name pattern.
type exactScope struct {
	pkg  string
	recv string
	name *regexp.Regexp
}

// exactScopes lists the fold families. Matching is by package *name*
// (ldp, stream, persist), not import path, so analysistest fixtures can
// reproduce the scope.
var exactScopes = []exactScope{
	// The sealed-tally folds, decoded and from the wire bytes, and the
	// one loop every fold from count-frame bytes runs.
	{pkg: "ldp", recv: "Tally", name: regexp.MustCompile(`(?i)^merge`)},
	{pkg: "ldp", recv: "CountFrame", name: regexp.MustCompile(`(?i)^merge`)},
	{pkg: "ldp", recv: "", name: regexp.MustCompile(`^addCountBytes$`)},
	// The root's tally accept paths, the merge-on-arrival hand-off, the
	// partial-tally folds (decoded and from the wire bytes), and the
	// report-batch fold from a validated view.
	{pkg: "stream", recv: "", name: regexp.MustCompile(`^(MergeSealed|MergeFrame|SealCounts|AddPartial|AddPartialFrame|AddReportFrame)$`)},
	// WAL replay: everything that re-folds logged records at boot.
	{pkg: "persist", recv: "", name: regexp.MustCompile(`(?i)replay|^apply`)},
}

func runExactfold(pass *analysis.Pass) error {
	pkgName := pass.Pkg.Name()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if inExactScope(pass, pkgName, fd) {
				checkFloatFree(pass, fd)
			}
		}
	}
	if pkgName == "persist" {
		for _, f := range pass.Files {
			checkBitRoundTrip(pass, f)
		}
	}
	return nil
}

func inExactScope(pass *analysis.Pass, pkgName string, fd *ast.FuncDecl) bool {
	for _, s := range exactScopes {
		if s.pkg != pkgName || !s.name.MatchString(fd.Name.Name) {
			continue
		}
		if s.recv == "" {
			return true
		}
		if named := namedRecvType(pass.TypesInfo, fd); named != nil && named.Obj().Name() == s.recv {
			return true
		}
	}
	return false
}

// checkFloatFree reports every floating-point expression inside an
// exact fold.
func checkFloatFree(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	isFloat := func(t types.Type) bool {
		return t != nil && basicKindIs(t, types.IsFloat|types.IsComplex)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if n.Kind == token.FLOAT {
				pass.Reportf(n.Pos(), "float literal in exact fold %s", fd.Name.Name)
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO, token.REM:
				if isFloat(info.TypeOf(n)) {
					pass.Reportf(n.Pos(),
						"floating-point arithmetic in exact fold %s breaks bit-identical merging",
						fd.Name.Name)
				}
			}
		case *ast.CallExpr:
			if target, ok := isConversion(info, n); ok {
				if isFloat(target) {
					pass.Reportf(n.Pos(),
						"conversion to %s in exact fold %s breaks bit-identical merging",
						target.String(), fd.Name.Name)
				}
				return true
			}
			if f := callee(info, n); f != nil && f.Pkg() != nil && f.Pkg().Path() == "math" {
				if sig, ok := f.Type().(*types.Signature); ok && sig.Results().Len() > 0 &&
					isFloat(sig.Results().At(0).Type()) {
					pass.Reportf(n.Pos(), "math.%s returns a float inside exact fold %s", f.Name(), fd.Name.Name)
				}
			}
		}
		return true
	})
}

// checkBitRoundTrip flags float↔integer conversions anywhere in the
// persist package: a snapshot codec that converts instead of using
// math.Float64bits/Float64frombits silently truncates values and breaks
// the bit-identical restore guarantee. Conversions of untyped constants
// are exempt (they are exact by definition).
func checkBitRoundTrip(pass *analysis.Pass, f *ast.File) {
	info := pass.TypesInfo
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		target, ok := isConversion(info, call)
		if !ok {
			return true
		}
		argTV, ok := info.Types[call.Args[0]]
		if !ok || argTV.Value != nil {
			return true // constant conversion: exact
		}
		src := argTV.Type
		switch {
		case basicKindIs(target, types.IsInteger) && basicKindIs(src, types.IsFloat):
			pass.Reportf(call.Pos(),
				"float→%s conversion in persist truncates; round-trip snapshot floats with math.Float64bits",
				target.String())
		case basicKindIs(target, types.IsFloat) && basicKindIs(src, types.IsInteger):
			pass.Reportf(call.Pos(),
				"%s→float conversion in persist; decode snapshot floats with math.Float64frombits",
				src.String())
		}
		return true
	})
}

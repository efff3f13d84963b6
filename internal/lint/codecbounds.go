package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"ldprecover/internal/lint/analysis"
)

// Codecbounds enforces the wire-codec decode discipline (DESIGN.md §10):
// inside every [Uu]nmarshal*/[Vv]alidate*Frame function, a length that was
// read off the wire must be bounds-checked before it drives a make, and
// the CRC-carrying frame families must verify their CRC-32C before any
// wire-derived allocation. The convention dates to the PR 5 tally codec
// ("bounds-checked before allocation") and exists so a corrupt or
// hostile frame can neither balloon memory nor smuggle unverified bytes
// into fields.
var Codecbounds = &analysis.Analyzer{
	Name: "codecbounds",
	Doc: "wire codecs must bounds-check wire-derived lengths before allocating " +
		"and verify CRC-32C before trusting frame fields",
	Run: runCodecbounds,
}

// codecFuncRE scopes the analyzer: the codec family's decode entry
// points and the unexported decoders they share, by naming convention.
var codecFuncRE = regexp.MustCompile(`^[Uu]nmarshal|^[Vv]alidate.*Frame$`)

// crcRequiredRE names the decode functions whose frame format carries a
// CRC-32C trailer (the "LT"/"LP"/"LA" family, including the count-frame
// validator "LT" and "LP" share, and WAL-derived frames); these must
// call hash/crc32 at all. Every other scoped function is only held to
// check-order: if it verifies a CRC, no wire-derived allocation may
// precede the verification.
var crcRequiredRE = regexp.MustCompile(`^(Unmarshal(Tally|Partial|Announce)|unmarshalCountFrame|validateCountFrame)$`)

func runCodecbounds(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !codecFuncRE.MatchString(fd.Name.Name) {
				continue
			}
			checkCodecFunc(pass, fd)
		}
	}
	return nil
}

// wireMake is one make() whose size mentions wire-derived lengths.
type wireMake struct {
	pos    token.Pos
	vars   []types.Object // wire-derived variables mentioned in size args
	inline bool           // a binary read appears directly in a size arg
}

func checkCodecFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	tainted := make(map[types.Object]token.Pos) // wire-derived var → first taint
	checked := make(map[types.Object]token.Pos) // wire-derived var → first bounds check
	var makes []wireMake
	var crcPos token.Pos
	delegated := false // calls another CRC-required decoder
	ownObj := info.Defs[fd.Name]

	// exprWire reports whether expr derives from wire bytes: it calls
	// an encoding/binary read, or mentions an already-tainted variable.
	exprWire := func(expr ast.Expr) bool {
		wire := false
		ast.Inspect(expr, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isBinaryRead(info, n) {
					wire = true
				}
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil {
					if _, ok := tainted[obj]; ok {
						wire = true
					}
				}
			}
			return !wire
		})
		return wire
	}
	// taintTargets marks assignment targets whose RHS derives from the
	// wire (and clears re-assigned ones that no longer do).
	taintTargets := func(lhs, rhs []ast.Expr) {
		if len(lhs) != len(rhs) {
			return // tuple assignment from a call: nothing here reads wire ints
		}
		for i, l := range lhs {
			id, ok := l.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				continue
			}
			if exprWire(rhs[i]) {
				if _, seen := tainted[obj]; !seen {
					tainted[obj] = id.Pos()
				}
			} else {
				delete(tainted, obj)
				delete(checked, obj)
			}
		}
	}
	markCompared := func(expr ast.Expr) {
		ast.Inspect(expr, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					if _, isWire := tainted[obj]; isWire {
						if _, done := checked[obj]; !done {
							checked[obj] = id.Pos()
						}
					}
				}
			}
			return true
		})
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			taintTargets(n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			var lhs []ast.Expr
			for _, name := range n.Names {
				lhs = append(lhs, name)
			}
			taintTargets(lhs, n.Values)
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ, token.NEQ, token.EQL:
				markCompared(n)
			}
		case *ast.SwitchStmt:
			// switch n { case ...: } compares the tag against each case.
			if n.Tag != nil {
				markCompared(n.Tag)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "make" && len(n.Args) > 1 {
					m := wireMake{pos: n.Pos()}
					for _, arg := range n.Args[1:] {
						ast.Inspect(arg, func(an ast.Node) bool {
							switch an := an.(type) {
							case *ast.CallExpr:
								if isBinaryRead(info, an) {
									m.inline = true
								}
							case *ast.Ident:
								if obj := info.Uses[an]; obj != nil {
									if _, isWire := tainted[obj]; isWire {
										m.vars = append(m.vars, obj)
									}
								}
							}
							return true
						})
					}
					if m.inline || len(m.vars) > 0 {
						makes = append(makes, m)
					}
				}
			}
			if crcPos == token.NoPos && isCRCCall(info, n) {
				crcPos = n.Pos()
			}
			// A wrapper that hands the frame to another CRC-required
			// decoder inherits that decoder's verification.
			if f := callee(info, n); f != nil && f != ownObj && crcRequiredRE.MatchString(f.Name()) {
				delegated = true
			}
		}
		return true
	})

	for _, m := range makes {
		if m.inline {
			pass.Reportf(m.pos,
				"%s allocates from a wire-derived length read inline; bind and bounds-check it first",
				fd.Name.Name)
			continue
		}
		for _, v := range m.vars {
			cp, ok := checked[v]
			if !ok || cp > m.pos {
				pass.Reportf(m.pos,
					"%s allocates from wire-derived length %q without a prior bounds check",
					fd.Name.Name, v.Name())
			}
		}
	}
	if crcRequiredRE.MatchString(fd.Name.Name) && crcPos == token.NoPos && !delegated {
		pass.Reportf(fd.Pos(),
			"%s decodes a CRC-carrying frame but never verifies a CRC-32C (hash/crc32)",
			fd.Name.Name)
	}
	if crcPos != token.NoPos {
		for _, m := range makes {
			if m.pos < crcPos {
				pass.Reportf(m.pos,
					"%s allocates from a wire-derived length before the CRC-32C check; verify the frame first",
					fd.Name.Name)
			}
		}
	}
}

// isBinaryRead reports whether call reads an integer off a byte slice
// via encoding/binary (LittleEndian/BigEndian Uint*/Varint helpers).
func isBinaryRead(info *types.Info, call *ast.CallExpr) bool {
	f := callee(info, call)
	return isPkgFunc(f, "encoding/binary",
		"Uint16", "Uint32", "Uint64", "Varint", "Uvarint", "ReadVarint", "ReadUvarint")
}

// isCRCCall reports whether call computes or folds a CRC via
// hash/crc32.
func isCRCCall(info *types.Info, call *ast.CallExpr) bool {
	f := callee(info, call)
	return isPkgFunc(f, "hash/crc32", "Checksum", "ChecksumIEEE", "Update")
}

// Package hotpathalloc defines an inter-procedural Analyzer that keeps the
// store's hot paths allocation-free.
//
// A function marked with a `// lint:hotpath` doc comment is a root, and so
// is one marked `// lint:kernelpure` (an inference kernel is allocation-free
// by the same contract; the escapes analyzer takes the same root set); the
// analyzer walks the call graph from every root and flags heap-allocating
// constructs in any transitively reached function:
//
//   - make and new
//   - append whose destination is not an explicit reslice (the
//     append(buf[:0], ...) reuse idiom is allowed: it only grows the first
//     few times, then reuses the backing array)
//   - any call into package fmt (formatting always allocates)
//   - string <-> []byte conversions
//   - slice/map composite literals and &T{} literals
//   - function-literal creation (closure environments live on the heap)
//   - passing a concrete value to a non-error interface parameter
//     (interface boxing)
//   - calls through unresolvable function values, which the analyzer
//     cannot prove allocation-free
//
// Escapes: a `lint:allow hotpathalloc` comment on a call site prunes that
// edge from the traversal (declaring the callee a cold branch), and the
// same comment on an allocation site suppresses that one finding. A block
// whose final statement returns a freshly constructed error (or panics) is
// treated as a cold error exit and skipped wholesale.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"e2nvm/internal/analysis"
	"e2nvm/internal/analysis/kernelpure"
)

// Marker is the doc-comment marker that makes a function a hot-path root.
const Marker = "lint:hotpath"

// Analyzer flags heap allocations reachable from lint:hotpath and
// lint:kernelpure roots.
var Analyzer = &analysis.ProgramAnalyzer{
	Name: "hotpathalloc",
	Doc: "functions marked lint:hotpath or lint:kernelpure, and everything they transitively call, " +
		"must not heap-allocate; suppress cold branches with lint:allow hotpathalloc",
	Run: run,
}

func run(pass *analysis.ProgramPass) error {
	g := pass.Graph
	var roots []*analysis.FuncNode
	for _, n := range g.Nodes() {
		if n.DocContains(Marker) || n.DocContains(kernelpure.Marker) {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	reach := g.Reach(roots, func(_ *analysis.FuncNode, c analysis.Call) bool {
		return pass.Allowed(c.Site)
	})
	for _, n := range g.Nodes() {
		step, ok := reach[n]
		if !ok {
			continue
		}
		checkFunc(pass, n, step.Root, reach)
	}
	return nil
}

// checkFunc scans one reached function's own body for allocating
// constructs and reports them against the root that reaches it.
func checkFunc(pass *analysis.ProgramPass, n, root *analysis.FuncNode, reach map[*analysis.FuncNode]analysis.ReachStep) {
	cold := ColdRanges(n)
	flag := func(site token.Pos, what string) {
		for _, r := range cold {
			if r.Contains(site) {
				return
			}
		}
		if pass.Allowed(site) {
			return
		}
		if n == root {
			pass.Reportf(site, "%s on hot path %s", what, root.Name())
			return
		}
		pass.Reportf(root.Pos(), "hot path %s reaches %s in %s (%s) at %s",
			root.Name(), what, n.Name(), analysis.PathTo(reach, n), pass.Fset.Position(site))
	}

	info := n.Pkg.TypesInfo
	n.InspectOwn(func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if x != n.Lit {
				flag(x.Pos(), "function-literal allocation (closure)")
			}
		case *ast.CompositeLit:
			switch info.Types[x].Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				flag(x.Pos(), "composite-literal allocation")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					flag(x.Pos(), "&T{} heap allocation")
				}
			}
		case *ast.CallExpr:
			checkCall(pass, info, x, flag)
		}
		return true
	})

	// Edges the graph could not resolve cannot be proven allocation-free.
	for _, c := range n.Calls {
		if c.Kind == analysis.CallValue {
			flag(c.Site, "call through function value (cannot verify allocation-free)")
		}
	}
}

// checkCall classifies one call expression: builtin allocators, fmt calls,
// allocating conversions, and interface boxing of arguments.
func checkCall(pass *analysis.ProgramPass, info *types.Info, call *ast.CallExpr, flag func(token.Pos, string)) {
	fun := ast.Unparen(call.Fun)

	// Conversion: only string <-> []byte (and string <-> []rune) allocate.
	if tv, ok := info.Types[fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		src := info.Types[call.Args[0]].Type
		if src != nil && allocatingConversion(src.Underlying(), dst) {
			flag(call.Pos(), "string/[]byte conversion allocation")
		}
		return
	}

	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new":
				flag(call.Pos(), id.Name+" allocation")
			case "append":
				// append(dst[:0], ...) reuses dst's backing array; any
				// other destination may grow on every call.
				if len(call.Args) > 0 {
					if _, reuse := ast.Unparen(call.Args[0]).(*ast.SliceExpr); !reuse {
						flag(call.Pos(), "append growth allocation")
					}
				}
			}
			return
		}
	}

	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if obj, ok := info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			flag(call.Pos(), "fmt."+obj.Name()+" call (formatting allocates)")
			return
		}
	}

	// Interface boxing: a concrete argument passed to a non-error
	// interface parameter is heap-boxed.
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic():
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		default:
			continue
		}
		iface, isIface := pt.Underlying().(*types.Interface)
		if !isIface || isErrorType(pt) {
			continue
		}
		_ = iface
		at := info.Types[arg].Type
		if at == nil || at == types.Typ[types.UntypedNil] {
			continue
		}
		if _, argIface := at.Underlying().(*types.Interface); argIface {
			continue
		}
		if isPointerLike(at) {
			// Pointers, channels, maps, funcs box without copying the
			// pointee; still an interface allocation in the general case,
			// but pointer-shaped values share the original allocation and
			// small-int/pointer boxing is the idiomatic escape valve we
			// tolerate. Flag value types only.
			continue
		}
		flag(arg.Pos(), "interface boxing of "+at.String())
	}
}

func allocatingConversion(src, dst types.Type) bool {
	return (isString(src) && isByteOrRuneSlice(dst)) || (isByteOrRuneSlice(src) && isString(dst))
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

func isErrorType(t types.Type) bool {
	return t.String() == "error" || strings.HasSuffix(t.String(), ".error")
}

func isPointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

// PosRange is a half-open source range.
type PosRange struct{ lo, hi token.Pos }

// Contains reports whether p falls within the range.
func (r PosRange) Contains(p token.Pos) bool { return r.lo <= p && p < r.hi }

// ColdRanges collects blocks that end by returning a freshly constructed
// error or panicking — cold error exits whose allocations (the error
// itself, its formatting) are off the measured path.
func ColdRanges(n *analysis.FuncNode) []PosRange {
	var out []PosRange
	info := n.Pkg.TypesInfo
	n.InspectOwn(func(x ast.Node) bool {
		var list []ast.Stmt
		switch x := x.(type) {
		case *ast.BlockStmt:
			if x == n.Body() {
				return true // the function body itself is never cold
			}
			list = x.List
		case *ast.CaseClause:
			list = x.Body
		case *ast.CommClause:
			list = x.Body
		default:
			return true
		}
		if len(list) == 0 {
			return true
		}
		switch last := list[len(list)-1].(type) {
		case *ast.ReturnStmt:
			if len(last.Results) > 0 && isErrorConstruction(info, last.Results[len(last.Results)-1]) {
				out = append(out, PosRange{list[0].Pos(), last.End()})
			}
		case *ast.ExprStmt:
			if call, ok := last.X.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
					out = append(out, PosRange{list[0].Pos(), last.End()})
				}
			}
		}
		return true
	})
	return out
}

// isErrorConstruction reports whether e definitely produces an error:
// a fmt.Errorf/errors.New call, a reference to a package-level error
// variable, or any call returning exactly one error.
func isErrorConstruction(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.CallExpr:
		t := info.Types[e].Type
		return t != nil && isErrorType(t)
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil {
			return v.Parent() == v.Pkg().Scope() && isErrorType(v.Type())
		}
	case *ast.SelectorExpr:
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
			return v.Parent() == v.Pkg().Scope() && isErrorType(v.Type())
		}
	}
	return false
}

// Package kernelpure defines a whole-program Analyzer that keeps the
// inference kernel deterministic and self-contained. A function marked
// with a `// lint:kernelpure` doc comment is a root; everything it
// transitively reaches must be pure in the kernel sense:
//
//   - no map iteration (range order is randomized per run — a kernel that
//     ranges a map gives different segment placements on identical input);
//   - no writes to package-level state (a kernel that mutates globals
//     cannot be called concurrently or replayed).
//
// The other two halves of the kernel contract belong to the analyzers that
// own them: hotpathalloc and escapes take every lint:kernelpure root as one
// of theirs (no heap allocation, no calls through unresolvable function
// values), and floateq runs over every library package (no float == or !=).
//
// `lint:allow kernelpure` on a site suppresses one finding; on a call site
// it prunes the traversal edge.
package kernelpure

import (
	"go/ast"
	"go/token"
	"go/types"

	"e2nvm/internal/analysis"
)

// Marker is the doc-comment marker that makes a function a kernel root.
const Marker = "lint:kernelpure"

// Analyzer flags purity violations reachable from lint:kernelpure roots.
var Analyzer = &analysis.ProgramAnalyzer{
	Name: "kernelpure",
	Doc: "functions marked lint:kernelpure, and everything they transitively call, " +
		"must not iterate maps or write package-level state; suppress with lint:allow kernelpure",
	Run: run,
}

func run(pass *analysis.ProgramPass) error {
	g := pass.Graph
	var roots []*analysis.FuncNode
	for _, n := range g.Nodes() {
		if n.DocContains(Marker) {
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
		checkPurity(pass, n, step.Root, reach)
	}
	return nil
}

// checkPurity scans one reached function's own body for map iteration and
// package-level state writes.
func checkPurity(pass *analysis.ProgramPass, n, root *analysis.FuncNode, reach map[*analysis.FuncNode]analysis.ReachStep) {
	flag := func(site token.Pos, what string) {
		if pass.Allowed(site) {
			return
		}
		if n == root {
			pass.Reportf(site, "%s on kernel %s", what, root.Name())
			return
		}
		pass.Reportf(root.Pos(), "kernel %s reaches %s in %s (%s) at %s",
			root.Name(), what, n.Name(), analysis.PathTo(reach, n), pass.Fset.Position(site))
	}

	info := n.Pkg.TypesInfo
	n.InspectOwn(func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.RangeStmt:
			if t := info.Types[x.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					flag(x.Pos(), "map iteration (randomized order breaks determinism)")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if v := packageLevelTarget(info, lhs); v != nil {
					flag(lhs.Pos(), "package-level state write (to "+v.Name()+")")
				}
			}
		case *ast.IncDecStmt:
			if v := packageLevelTarget(info, x.X); v != nil {
				flag(x.Pos(), "package-level state write (to "+v.Name()+")")
			}
		}
		return true
	})
}

// packageLevelTarget resolves an assignment target to the package-level
// variable it mutates, if any: the base identifier of any chain of index,
// selector, and star expressions (g.cache[i] = v writes global g).
func packageLevelTarget(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			// A qualified reference (pkg.Var) resolves through Sel; a field
			// selection keeps unwrapping through the base.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					e = x.Sel
					continue
				}
			}
			e = x.X
		case *ast.StarExpr:
			// Writing through a dereferenced pointer: the pointer may be a
			// global, but the pointee is not provably package state. Stop at
			// the identifier and let the Ident case decide.
			e = x.X
		case *ast.Ident:
			v, ok := info.Uses[x].(*types.Var)
			if !ok || v.Pkg() == nil {
				return nil
			}
			if v.Parent() == v.Pkg().Scope() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

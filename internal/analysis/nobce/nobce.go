// Package nobce defines an Analyzer enforcing that functions annotated
// `lint:nobce` compile with no bounds or slice checks inside their loops.
//
// The serving kernels (infer.Forward, bitvec.HammingBytes, the kvstore
// record codec) spend their cycles in tight inner loops over slices; a
// bounds check the prove pass fails to eliminate there costs a branch per
// element, and regressions slip in silently — an innocuous refactor
// reorders a reslice and the check is back. This analyzer reads
// the compiler's own `-d=ssa/check_bce` output (via gcdiag) and flags
// every surviving check inside a for/range statement of an annotated
// function.
//
// Deliberately narrower than "zero checks anywhere in the function":
//
//   - Straight-line checks outside loops are exempt. A prologue reslice
//     like `h = h[:k.hidden]` is one predictable check per call that
//     *enables* elimination inside the loop — demanding its removal would
//     outlaw the standard idiom for removing the expensive ones.
//   - Lines holding a `_ = s[n]` bounds hint are exempt wherever they
//     appear; the hint exists to concentrate checks at one site.
//   - Cold ranges (blocks ending in a panic or error return, per
//     hotpathalloc's rule) are off the measured path and exempt.
//
// Structurally unprovable checks — e.g. indexing by a variable stride the
// prove pass cannot reason about — are suppressed with `lint:allow nobce`
// plus a comment giving the reason.
//
// Like escapes, the analyzer degrades to a no-op when compiler feedback
// is unavailable (Reports == nil or an empty Report).
package nobce

import (
	"go/ast"
	"go/token"

	"e2nvm/internal/analysis"
	"e2nvm/internal/analysis/gcdiag"
	"e2nvm/internal/analysis/hotpathalloc"
)

// Marker annotates a function whose loops must be free of bounds checks.
const Marker = "lint:nobce"

// Reports supplies the per-package compiler diagnostics. The lint driver
// wires it to a gcdiag.Source; golden tests substitute canned output; nil
// disables the analyzer.
var Reports func(pkg *analysis.Package) (*gcdiag.Report, error)

// Analyzer flags bounds checks the compiler could not eliminate from
// loops of lint:nobce functions.
var Analyzer = &analysis.ProgramAnalyzer{
	Name: "nobce",
	Doc: "functions marked lint:nobce must compile with zero bounds/slice checks inside " +
		"their loops (per -d=ssa/check_bce); straight-line prologue checks, `_ = s[n]` " +
		"hint lines, and cold exits are exempt; suppress with lint:allow nobce",
	Run: run,
}

func run(pass *analysis.ProgramPass) error {
	if Reports == nil {
		return nil
	}
	// Collect annotated functions per package.
	marked := map[*analysis.Package][]*analysis.FuncNode{}
	for _, n := range pass.Graph.Nodes() {
		if n.DocContains(Marker) && n.Body() != nil {
			marked[n.Pkg] = append(marked[n.Pkg], n)
		}
	}
	if len(marked) == 0 {
		return nil
	}
	resolver := gcdiag.NewResolver(pass.Fset)
	for _, pkg := range pass.Pkgs {
		nodes := marked[pkg]
		if len(nodes) == 0 {
			continue
		}
		rep, err := Reports(pkg)
		if err != nil {
			return err
		}
		if rep.Empty() {
			continue // diagnostics absent: degrade, do not fabricate findings
		}
		for _, n := range nodes {
			checkFunc(pass, resolver, rep, n)
		}
	}
	return nil
}

type span struct{ lo, hi token.Pos }

func (s span) contains(p token.Pos) bool { return s.lo <= p && p < s.hi }

func checkFunc(pass *analysis.ProgramPass, resolver *gcdiag.Resolver, rep *gcdiag.Report, n *analysis.FuncNode) {
	body := n.Body()
	loops := loopRanges(n)
	if len(loops) == 0 {
		return // nothing in a loop, nothing to enforce
	}
	hints := hintLines(pass.Fset, n)
	cold := hotpathalloc.ColdRanges(n)
	for _, b := range rep.Bounds {
		pos := resolver.Pos(b.Pos)
		if !pos.IsValid() || pos < body.Pos() || pos >= body.End() {
			continue
		}
		inLoop := false
		for _, r := range loops {
			if r.contains(pos) {
				inLoop = true
				break
			}
		}
		if !inLoop || hints[pass.Fset.Position(pos).Line] {
			continue
		}
		inCold := false
		for _, r := range cold {
			if r.Contains(pos) {
				inCold = true
				break
			}
		}
		if inCold {
			continue
		}
		pass.Reportf(pos, "compiler: %s survives in loop of lint:nobce function %s", b.Kind, n.Name())
	}
}

// loopRanges collects the position ranges of for/range statements in n's
// own body (nested function literals have their own nodes and their own
// annotations, so they are not descended into).
func loopRanges(n *analysis.FuncNode) []span {
	var out []span
	n.InspectOwn(func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.ForStmt:
			out = append(out, span{s.Pos(), s.End()})
		case *ast.RangeStmt:
			out = append(out, span{s.Pos(), s.End()})
		}
		return true
	})
	return out
}

// hintLines records source lines holding a `_ = expr[index]` bounds-check
// hint: a deliberate single check placed to let prove eliminate the rest.
func hintLines(fset *token.FileSet, n *analysis.FuncNode) map[int]bool {
	lines := map[int]bool{}
	n.InspectOwn(func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); !ok || id.Name != "_" {
			return true
		}
		if _, ok := as.Rhs[0].(*ast.IndexExpr); ok {
			lines[fset.Position(as.Pos()).Line] = true
		}
		return true
	})
	return lines
}

// Command e2nvm-lint runs the repo's custom static-analysis suite over the
// module, plus (with -vet) a selected set of go vet passes.
//
// Usage:
//
//	go run ./cmd/e2nvm-lint [-vet] [-github] [packages]
//
// Patterns default to ./... . Exit status is 1 if any diagnostic is
// reported. -github additionally emits GitHub Actions ::error annotations
// so CI failures link to file:line. Each per-package analyzer runs over a
// scope matching its invariant:
//
//	lockdiscipline  all library and command packages
//	floateq         all library and command packages
//	seededrand      library packages only (package name != main; the
//	                experiment drivers may use ad-hoc randomness)
//	nopanic         internal/core, internal/kvstore, internal/txn — the
//	                storage packages behind the public Store API
//
// Ten whole-program analyzers then run once over every loaded package,
// following the call graph across package boundaries:
//
//	hotpathalloc     lint:hotpath and lint:kernelpure roots must not reach
//	                 heap allocations
//	errflow          exported errors of the storage packages wrap sentinels
//	deepdeterminism  internal/experiments must stay bit-reproducible
//	lockorder        the program-wide lock-acquisition graph must be acyclic
//	atomicmix        each struct field sticks to one access discipline
//	goroutinelife    every go statement has a provable join or shutdown edge
//	kernelpure       lint:kernelpure roots reach no map iteration and no
//	                 package-level writes
//	escapes          no compiler-verified heap escape is reachable from a
//	                 lint:hotpath or lint:kernelpure root
//	nobce            lint:nobce functions compile with zero bounds checks
//	                 inside their loops
//	inlinebudget     lint:inline leaf helpers stay inlinable
//
// The last three consume the compiler's own -m=2 / -d=ssa/check_bce
// diagnostics via internal/analysis/gcdiag, which shells out to go build
// per package and caches the raw output keyed on go version + source
// hash (-gcdiag-cache; default under os.UserCacheDir). -gcdiag=false
// skips them (e.g. when no go tool is available); -gcdiag-only runs only
// them, for the fast `make lint-perf` loop.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"

	"e2nvm/internal/analysis"
	"e2nvm/internal/analysis/atomicmix"
	"e2nvm/internal/analysis/deepdeterminism"
	"e2nvm/internal/analysis/errflow"
	"e2nvm/internal/analysis/escapes"
	"e2nvm/internal/analysis/floateq"
	"e2nvm/internal/analysis/gcdiag"
	"e2nvm/internal/analysis/goroutinelife"
	"e2nvm/internal/analysis/hotpathalloc"
	"e2nvm/internal/analysis/inlinebudget"
	"e2nvm/internal/analysis/kernelpure"
	"e2nvm/internal/analysis/lockdiscipline"
	"e2nvm/internal/analysis/lockorder"
	"e2nvm/internal/analysis/nobce"
	"e2nvm/internal/analysis/nopanic"
	"e2nvm/internal/analysis/seededrand"
)

// nopanicScope lists the storage packages (relative to the module root)
// whose exported APIs must not panic.
var nopanicScope = map[string]bool{
	"internal/core":    true,
	"internal/kvstore": true,
	"internal/txn":     true,
}

// vetPasses are the go vet analyzers run under -vet; a curated set that is
// reliable on this codebase (the full default set is run by CI separately).
var vetPasses = []string{"-copylocks", "-lostcancel", "-printf", "-unreachable"}

// errflowScope lists the packages (relative to the module root; "" is the
// root facade package itself) whose exported error contract errflow
// enforces.
var errflowScope = []string{
	"",
	"internal/core",
	"internal/hotcache",
	"internal/kvstore",
	"internal/txn",
	"internal/nvm",
	"internal/shard",
	"internal/replica",
}

func main() {
	vet := flag.Bool("vet", false, "also run selected go vet passes on the same patterns")
	github := flag.Bool("github", false, "emit GitHub Actions ::error annotations for diagnostics")
	useGcdiag := flag.Bool("gcdiag", true, "run the compiler-feedback analyzers (escapes, nobce, inlinebudget)")
	gcdiagOnly := flag.Bool("gcdiag-only", false, "run only the compiler-feedback analyzers")
	gcdiagCache := flag.String("gcdiag-cache", gcdiag.DefaultCacheDir(),
		"directory caching raw compiler diagnostics keyed on go version + package hash (empty disables)")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var diags []analysis.Diagnostic
	if !*gcdiagOnly {
		for _, pkg := range pkgs {
			for _, a := range analyzersFor(loader, pkg) {
				pass := analysis.NewPass(a, pkg, &diags)
				if err := a.Run(pass); err != nil {
					fmt.Fprintf(os.Stderr, "%s: %s: %v\n", a.Name, pkg.PkgPath, err)
					os.Exit(2)
				}
			}
		}
	}

	// Whole-program analyzers see every loaded package at once.
	errflow.ScopePackages = nil
	for _, rel := range errflowScope {
		if rel == "" {
			errflow.ScopePackages = append(errflow.ScopePackages, loader.ModPath)
			continue
		}
		errflow.ScopePackages = append(errflow.ScopePackages, loader.ModPath+"/"+rel)
	}
	deepdeterminism.RootPackages = []string{loader.ModPath + "/internal/experiments"}

	var program []*analysis.ProgramAnalyzer
	if !*gcdiagOnly {
		program = append(program,
			hotpathalloc.Analyzer, errflow.Analyzer, deepdeterminism.Analyzer,
			lockorder.Analyzer, atomicmix.Analyzer, goroutinelife.Analyzer, kernelpure.Analyzer)
	}
	if *useGcdiag || *gcdiagOnly {
		src, err := gcdiag.NewSource(loader.ModRoot, *gcdiagCache)
		if err != nil {
			// No go tool: compiler feedback is unavailable, so the gcdiag
			// analyzers degrade to no-ops instead of failing the run.
			fmt.Fprintf(os.Stderr, "warning: skipping escapes/nobce/inlinebudget: %v\n", err)
		} else {
			reports := func(pkg *analysis.Package) (*gcdiag.Report, error) { return src.For(pkg.Dir) }
			escapes.Reports = reports
			nobce.Reports = reports
			inlinebudget.Reports = reports
			program = append(program, escapes.Analyzer, nobce.Analyzer, inlinebudget.Analyzer)
		}
	}
	for _, a := range program {
		pass, err := analysis.NewProgramPass(a, pkgs, &diags)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", a.Name, err)
			os.Exit(2)
		}
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", a.Name, err)
			os.Exit(2)
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	for _, d := range diags {
		fmt.Println(d)
		if *github {
			fmt.Printf("::error file=%s,line=%d::[%s] %s\n", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
		}
	}

	failed := len(diags) > 0
	if *vet {
		args := append(append([]string{"vet"}, vetPasses...), patterns...)
		cmd := exec.Command("go", args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// analyzersFor selects the analyzers whose scope covers pkg.
func analyzersFor(loader *analysis.Loader, pkg *analysis.Package) []*analysis.Analyzer {
	rel := pkg.PkgPath
	if pkg.PkgPath != loader.ModPath {
		rel = pkg.PkgPath[len(loader.ModPath)+1:]
	}
	out := []*analysis.Analyzer{lockdiscipline.Analyzer, floateq.Analyzer}
	if pkg.Types.Name() != "main" {
		out = append(out, seededrand.Analyzer)
	}
	if nopanicScope[rel] {
		out = append(out, nopanic.Analyzer)
	}
	return out
}

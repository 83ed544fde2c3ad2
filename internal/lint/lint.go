// Package lint is veridp-lint: a stdlib-only static-analysis framework
// (go/parser, go/ast, go/types — no external dependencies) that enforces
// repo-specific concurrency and correctness invariants across the VeriDP
// monitoring pipeline. The design mirrors golang.org/x/tools/go/analysis
// — an Analyzer owns a name, a doc string, and a Run function over a Pass
// — but is self-contained so go.mod stays empty.
//
// The checkers exist because VeriDP's monitor is itself concurrent: the
// southbound proxy, the controller server, the dataplane agents, and the
// report collector all spawn goroutines, and a state-corruption bug in
// the monitor masquerades as a data-plane fault (exactly the confusion
// the system is meant to resolve). See the package docs on each checker
// file for the invariant it enforces.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"
)

// Diagnostic is one finding: a position, the checker that produced it,
// and a human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Checker string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Checker)
}

// Pass carries one type-checked package through one analyzer. Prog —
// the shared cross-package view (call graph, summaries), built once per
// run — is set on every pass; for whole-program analyzers
// (Analyzer.Global) the per-package fields are nil and Prog is the
// entire input.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Prog  *Program

	checker string
	diags   *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Checker: p.checker,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named checker. Per-package analyzers get one Pass per
// package; Global analyzers get a single Pass whose Prog field spans
// every loaded package (call graph, lockset summaries), which is what
// the interprocedural checkers need.
type Analyzer struct {
	Name   string
	Doc    string
	Global bool
	Run    func(*Pass)
}

// Analyzers lists every checker in registration order.
var Analyzers = []*Analyzer{
	GuardedBy,
	BDDMix,
	SouthboundErr,
	LockOrder,
	LockedBlock,
	Lifecycle,
	WireTaint,
	EnumSwitch,
	SnapFreeze,
	AtomicField,
	AllocFree,
	CtxProp,
	Deadline,
	RetryBound,
	ChanFlow,
	WgSync,
	TickLeak,
}

// ByName returns the analyzer registered under name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Result is one lint run: the findings that stand, and the findings that
// were silenced by `//lint:ignore` directives (counted, never hidden).
type Result struct {
	Diags      []Diagnostic
	Suppressed []Diagnostic
}

// CheckerTiming is one analyzer's wall time within a run.
type CheckerTiming struct {
	Name     string
	Duration time.Duration
}

// Stats reports where a run's wall time went: the single whole-program
// build (call graph + lock summaries, shared by every checker) and each
// analyzer's own pass.
type Stats struct {
	BuildProgram time.Duration
	Checkers     []CheckerTiming
}

// Run applies each analyzer to each package (or, for Global analyzers,
// once to the whole program), filters `//lint:ignore` suppressions, and
// returns both lists sorted by file position. All packages must share
// one token.FileSet, which is how Load and CheckFiles build them.
func Run(pkgs []*Package, analyzers []*Analyzer) Result {
	result, _ := RunStats(pkgs, analyzers)
	return result
}

// RunStats is Run plus per-checker wall-time accounting. The Program is
// built exactly once up front — every Global analyzer shares it, and
// per-package passes carry it too, so no checker ever reconstructs the
// call graph.
func RunStats(pkgs []*Package, analyzers []*Analyzer) (Result, Stats) {
	var diags []Diagnostic
	var stats Stats

	start := time.Now()
	prog := BuildProgram(pkgs)
	stats.BuildProgram = time.Since(start)

	for _, a := range analyzers {
		t0 := time.Now()
		if a.Global {
			pass := &Pass{
				Fset:    prog.Fset,
				Prog:    prog,
				checker: a.Name,
				diags:   &diags,
			}
			a.Run(pass)
		} else {
			for _, pkg := range pkgs {
				pass := &Pass{
					Fset:    pkg.Fset,
					Files:   pkg.Files,
					Pkg:     pkg.Types,
					Info:    pkg.Info,
					Prog:    prog,
					checker: a.Name,
					diags:   &diags,
				}
				a.Run(pass)
			}
		}
		stats.Checkers = append(stats.Checkers, CheckerTiming{Name: a.Name, Duration: time.Since(t0)})
	}
	kept, suppressed := applyIgnores(pkgs, diags)
	sortDiags(kept)
	sortDiags(suppressed)
	return Result{Diags: kept, Suppressed: suppressed}, stats
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Checker < diags[j].Checker
	})
}

// exprChain renders a receiver expression as a dotted identifier chain
// ("t", "s.T", "m.left.table"). It returns "" for expressions that are
// not pure ident/selector chains (calls, index expressions, ...), which
// callers treat as "provenance unknown — do not report".
func exprChain(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprChain(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprChain(e.X)
	case *ast.StarExpr:
		return exprChain(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprChain(e.X)
		}
	}
	return ""
}

// isNamed reports whether t (after pointer unwrapping) is the named type
// pkgPath.name, and returns the unwrapped named type.
func isNamed(t types.Type, pkgPath, name string) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return nil, false
	}
	if obj.Pkg().Path() == pkgPath && obj.Name() == name {
		return named, true
	}
	return nil, false
}

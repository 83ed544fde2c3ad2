// Checker ctxprop: cancellation must be threaded, not invented. The
// monitor's long-lived goroutines (proxy splices, the collector's reader,
// agent serve loops) park in blocking operations; the only way to shut
// one down is a cancellation signal that reaches it, so the repo rule has
// four clauses:
//
//  1. A context.Context parameter is the function's first parameter —
//     the position every caller scans for when wiring cancellation.
//  2. Contexts are not stored in struct fields: a stored context outlives
//     the call tree that created it and silently decouples the field's
//     owner from its caller's lifetime. A field that genuinely carries a
//     lifetime is annotated `// ctx: bound to <lifetime>` naming it.
//  3. context.Background() and context.TODO() mint fresh root lifetimes,
//     which is main's job (and the tests'); anywhere else they sever the
//     caller's cancellation chain.
//  4. A spawned goroutine that loops forever into blocking operations
//     (net I/O, channel ops, time.Sleep, Wait — directly or through any
//     resolvable call chain) with no exit and no cancellation-shaped
//     select case has no shutdown path: it must accept and thread a
//     context.Context or stop channel.
//
// Clause 4 deepens lifecycle: lifecycle demands stop signals for channel
// loops, ctxprop demands them for every blocking loop — a sleep-poll
// loop has no channel and still leaks.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ctxBoundPrefix is the field annotation naming the lifetime a stored
// context is bound to: `// ctx: bound to <lifetime>`.
const ctxBoundPrefix = "ctx: bound to "

// CtxProp enforces the context-threading discipline.
var CtxProp = &Analyzer{
	Name:   "ctxprop",
	Doc:    "context.Context is threaded: first parameter only, never a struct field (unless `// ctx: bound to <lifetime>`), Background()/TODO() only in main; blocking goroutine loops need a cancellation signal",
	Global: true,
	Run:    runCtxProp,
}

func runCtxProp(pass *Pass) {
	prog := pass.Prog
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			checkCtxFile(pass, pkg, file)
		}
	}
	checkBlockingLoops(pass)
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	_, ok := isNamed(t, "context", "Context")
	return ok
}

// checkCtxFile applies the three syntactic clauses to one file.
func checkCtxFile(pass *Pass, pkg *Package, file *ast.File) {
	inMain := file.Name.Name == "main"
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			checkCtxParams(pass, pkg, n.Type)
		case *ast.FuncLit:
			// Literals inherit their context by capture; a ctx parameter
			// on one is unusual but must still come first.
			checkCtxParams(pass, pkg, n.Type)
		case *ast.StructType:
			checkCtxFields(pass, pkg, n)
		case *ast.CallExpr:
			if inMain {
				return true
			}
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				return true
			}
			if name := fn.Name(); name == "Background" || name == "TODO" {
				pass.Reportf(n.Pos(),
					"context.%s() outside package main severs the caller's cancellation chain; accept a ctx parameter instead", name)
			}
		}
		return true
	})
}

// checkCtxParams reports context.Context parameters that are not the
// first parameter.
func checkCtxParams(pass *Pass, pkg *Package, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	index := 0
	for _, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(typeOf(pkg, field.Type)) && index > 0 {
			pass.Reportf(field.Pos(),
				"context.Context must be the first parameter (found at parameter %d)", index+1)
		}
		index += n
	}
}

// checkCtxFields reports struct fields of type context.Context that lack
// the `// ctx: bound to <lifetime>` annotation.
func checkCtxFields(pass *Pass, pkg *Package, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if !isContextType(typeOf(pkg, field.Type)) {
			continue
		}
		if hasCtxBound(field.Doc) || hasCtxBound(field.Comment) {
			continue
		}
		pass.Reportf(field.Pos(),
			"context.Context stored in a struct field decouples the field from its caller's lifetime; thread it as a parameter or annotate `// ctx: bound to <lifetime>`")
	}
}

// hasCtxBound scans raw comment lines for the lifetime annotation with a
// non-empty lifetime.
func hasCtxBound(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(c.Text), "//"))
		if strings.HasPrefix(text, ctxBoundPrefix) && strings.TrimSpace(strings.TrimPrefix(text, ctxBoundPrefix)) != "" {
			return true
		}
	}
	return false
}

// checkBlockingLoops is clause 4: spawned goroutine bodies (literals and
// named spawns, like lifecycle) must not loop forever into blocking
// operations without a cancellation signal.
func checkBlockingLoops(pass *Pass) {
	prog := pass.Prog
	blocks := prog.mayBlock()
	reported := make(map[token.Pos]bool)
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if fl, ok := gs.Call.Fun.(*ast.FuncLit); ok {
					checkBlockingBody(pass, pkg, fl.Body, gs.Go, blocks, reported)
					return true
				}
				for _, callee := range prog.resolveCall(pkg, gs.Call) {
					if callee.Decl != nil {
						checkBlockingBody(pass, callee.Pkg, callee.Decl.Body, gs.Go, blocks, reported)
					}
				}
				return true
			})
		}
	}
}

// checkBlockingBody scans one goroutine body for condition-less loops
// that reach a blocking operation and cannot exit. Nested literals are
// separate goroutines (or stored closures) with their own spawn sites.
func checkBlockingBody(pass *Pass, pkg *Package, body *ast.BlockStmt, spawn token.Pos, blocks map[*FuncNode]*reached[blockSite], reported map[token.Pos]bool) {
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if _, ok := n.(*ast.FuncLit); ok {
			return
		}
		if loop, ok := n.(*ast.ForStmt); ok && loop.Cond == nil && !reported[loop.For] {
			if what := loopBlocks(pass, pkg, loop.Body, blocks); what != "" && !loopCanExit(pkg, loop.Body, true) {
				reported[loop.For] = true
				pass.Reportf(loop.For,
					"goroutine (spawned at %s) loops forever into %s with no exit and no cancellation signal — accept and thread a context.Context or stop channel",
					pass.Prog.shortPos(spawn), what)
			}
		}
		walkChildren(n, walk)
	}
	walk(body)
}

// loopBlocks names the first blocking operation the loop body reaches —
// a direct channel op, an intrinsic blocker, or a resolvable call chain
// that may block — or "" when the body cannot block.
func loopBlocks(pass *Pass, pkg *Package, body *ast.BlockStmt, blocks map[*FuncNode]*reached[blockSite]) string {
	found := ""
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if found != "" {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.SendStmt:
			found = "a channel send"
			return
		case *ast.SelectStmt:
			found = "a select"
			return
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = "a channel receive"
				return
			}
		case *ast.RangeStmt:
			if isChanType(typeOf(pkg, n.X)) {
				found = "a channel range"
				return
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if what := intrinsicBlock(pkg, sel); what != "" {
					found = what
					return
				}
			}
			for _, callee := range pass.Prog.resolveCall(pkg, n) {
				if info := blocks[callee]; info != nil {
					found = info.at.what + " (via " + callee.Name + ")"
					return
				}
			}
		}
		walkChildren(n, walk)
	}
	walk(body)
	return found
}

// Checker ctxprop: cancellation must be threaded, not invented. The
// monitor's long-lived goroutines (proxy splices, the collector's reader,
// agent serve loops) park in blocking operations; the only way to shut
// one down is a cancellation signal that reaches it, so the repo rule has
// three clauses, all syntactic:
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
//
// Whether a spawned goroutine that loops into blocking operations has a
// shutdown path at all is the lifecycle checker's question.

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ctxBoundPrefix is the field annotation naming the lifetime a stored
// context is bound to: `// ctx: bound to <lifetime>`.
const ctxBoundPrefix = "ctx: bound to "

// CtxProp enforces the context-threading discipline.
var CtxProp = &Analyzer{
	Name: "ctxprop",
	Doc:  "context.Context is threaded: first parameter only, never a struct field (unless `// ctx: bound to <lifetime>`), Background()/TODO() only in main",
	Run:  runCtxProp,
}

func runCtxProp(pass *Pass) {
	for _, file := range pass.Files {
		checkCtxFile(pass, file)
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	_, ok := isNamed(t, "context", "Context")
	return ok
}

// checkCtxFile applies the three syntactic clauses to one file.
func checkCtxFile(pass *Pass, file *ast.File) {
	inMain := file.Name.Name == "main"
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			checkCtxParams(pass, n.Type)
		case *ast.FuncLit:
			// Literals inherit their context by capture; a ctx parameter
			// on one is unusual but must still come first.
			checkCtxParams(pass, n.Type)
		case *ast.StructType:
			checkCtxFields(pass, n)
		case *ast.CallExpr:
			if inMain {
				return true
			}
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
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
func checkCtxParams(pass *Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	index := 0
	for _, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(pass.Info.Types[field.Type].Type) && index > 0 {
			pass.Reportf(field.Pos(),
				"context.Context must be the first parameter (found at parameter %d)", index+1)
		}
		index += n
	}
}

// checkCtxFields reports struct fields of type context.Context that lack
// the `// ctx: bound to <lifetime>` annotation.
func checkCtxFields(pass *Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if !isContextType(pass.Info.Types[field.Type].Type) {
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

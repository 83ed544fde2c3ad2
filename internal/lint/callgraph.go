// Whole-program call graph over the loaded packages, still stdlib-only.
// Each package is type-checked separately against export data, so the
// same function is represented by *different* types.Func objects in its
// defining package and in its importers; functions are therefore keyed
// by a stable string ("pkgpath.(*Type).Method" / "pkgpath.Func") that
// unifies the two. Dispatch resolution is static for direct calls and
// conservative for interface calls: an interface method call fans out to
// every loaded concrete type whose method set satisfies the interface.

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is the whole-program view the Global analyzers run over: every
// loaded package, a function index, per-function lockset summaries, and
// the set of channels the program ever closes (for lifecycle analysis).
type Program struct {
	Pkgs []*Package
	Fset *token.FileSet

	funcs map[string]*FuncNode // funcKey → node, declared funcs with bodies
	nodes []*FuncNode          // all nodes (decls + literals), build order
	named []namedType          // every top-level named type, for dispatch

	// closedChans holds a stable key (see chanKey) for every channel the
	// program passes to close().
	closedChans map[string]bool

	mayAcquireMemo map[*FuncNode]map[lockKey]reached[token.Pos]
	mayBlockMemo   map[*FuncNode]*reached[blockSite]
}

type namedType struct {
	t   *types.Named
	pkg *Package
}

// FuncNode is one analyzed function body: a declared function/method or
// a function literal (literals are roots of their own, analyzed with an
// empty entry lockset — a goroutine or stored closure does not inherit
// its creator's locks).
type FuncNode struct {
	Name string        // display name for diagnostics
	Decl *ast.FuncDecl // exactly one of Decl/Lit is set
	Lit  *ast.FuncLit
	Pkg  *Package
	Sum  *Summary
}

func (n *FuncNode) body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// funcKey renders the stable cross-package identity of a declared
// function, or "" when it has none (builtins, errors).
func funcKey(obj *types.Func) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		ptr := ""
		if p, isPtr := t.(*types.Pointer); isPtr {
			t, ptr = p.Elem(), "*"
		}
		named, isNamed := t.(*types.Named)
		if !isNamed {
			return ""
		}
		return obj.Pkg().Path() + ".(" + ptr + named.Obj().Name() + ")." + obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// shortName compresses "veridp/internal/controller.(*Server).Barrier" to
// "controller.(*Server).Barrier" for diagnostics.
func shortName(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// BuildProgram indexes every function body across pkgs and summarizes
// each one's lock behavior. All packages must share one FileSet.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:        pkgs,
		funcs:       make(map[string]*FuncNode),
		closedChans: make(map[string]bool),
	}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	} else {
		p.Fset = token.NewFileSet()
	}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok {
					p.named = append(p.named, namedType{named, pkg})
				}
			}
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				node := &FuncNode{Decl: fd, Pkg: pkg}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					if key := funcKey(obj); key != "" {
						node.Name = shortName(key)
						p.funcs[key] = node
					}
				}
				if node.Name == "" {
					node.Name = fd.Name.Name
				}
				p.nodes = append(p.nodes, node)
			}
		}
	}
	// Summarize every declared body; literals discovered inside are
	// appended to p.nodes by the walk and summarized in turn.
	for i := 0; i < len(p.nodes); i++ {
		p.summarize(p.nodes[i])
	}
	p.scanCloses()
	return p
}

// resolveCall maps one call expression in pkg to the loaded function
// nodes it can reach: the static callee for direct calls, every
// conservative implementation for interface method calls, nothing for
// dynamic calls through plain function values.
func (p *Program) resolveCall(pkg *Package, call *ast.CallExpr) []*FuncNode {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return p.lookup(obj)
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			obj, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			recv := sel.Recv()
			if iface := underlyingInterface(recv); iface != nil {
				return p.implementations(iface, obj.Name())
			}
			return p.lookup(obj)
		}
		// Package-qualified call: pkg.Func.
		if obj, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return p.lookup(obj)
		}
	}
	return nil
}

func (p *Program) lookup(obj *types.Func) []*FuncNode {
	if node, ok := p.funcs[funcKey(obj)]; ok {
		return []*FuncNode{node}
	}
	return nil
}

func underlyingInterface(t types.Type) *types.Interface {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	iface, _ := t.Underlying().(*types.Interface)
	return iface
}

// implementations returns the loaded method bodies named method on every
// top-level named type whose method set satisfies iface.
func (p *Program) implementations(iface *types.Interface, method string) []*FuncNode {
	var out []*FuncNode
	seen := make(map[*FuncNode]bool)
	for _, nt := range p.named {
		if _, isIface := nt.t.Underlying().(*types.Interface); isIface {
			continue
		}
		if !types.Implements(nt.t, iface) && !types.Implements(types.NewPointer(nt.t), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(nt.t), true, nt.t.Obj().Pkg(), method)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if node, ok := p.funcs[funcKey(fn)]; ok && !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// localKey is the identity of one function-local variable object.
func localKey(obj *types.Var) string {
	return fmt.Sprintf("local:%s:%d", obj.Name(), obj.Pos())
}

// chanKey renders a stable program-wide identity for a channel-valued
// expression: struct fields as "pkg.Type.field", package vars as
// "pkg.var", locals by object position. Returns "" when the expression
// has no stable identity (map lookups, call results, ...).
func chanKey(pkg *Package, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj, ok := pkg.Info.Uses[e].(*types.Var)
		if !ok {
			if def, okDef := pkg.Info.Defs[e].(*types.Var); okDef {
				obj = def
			} else {
				return ""
			}
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return localKey(obj)
	case *ast.SelectorExpr:
		sel, ok := pkg.Info.Selections[e]
		if ok && sel.Kind() == types.FieldVal {
			if named, okNamed := derefNamed(sel.Recv()); okNamed && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name
			}
			return ""
		}
		if obj, okUse := pkg.Info.Uses[e.Sel].(*types.Var); okUse && obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return ""
}

// scanCloses records every close(ch) target in the program.
func (p *Program) scanCloses() {
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || id.Name != "close" {
					return true
				}
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
					return true
				}
				if key := chanKey(pkg, call.Args[0]); key != "" {
					p.closedChans[key] = true
				}
				return true
			})
		}
	}
}

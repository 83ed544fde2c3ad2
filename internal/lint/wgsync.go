// Checker wgsync: sync.WaitGroup join protocol. Every long-lived
// component of the monitor drains its workers through a WaitGroup (the
// proxy's splice goroutines, the controller's per-switch serveConn
// units), and each of the classic WaitGroup
// mistakes deadlocks or under-counts the join at shutdown — exactly when
// the monitor must prove it leaked nothing. Four clauses:
//
//  1. Add precedes the spawn it covers. An Add inside the spawned
//     goroutine races Wait: the waiter can observe the counter at zero
//     before the goroutine has announced itself. Orderings where the
//     goroutine's Done has no Add before the go statement are reported
//     too (whole-program: if the WaitGroup is a field whose Add lives in
//     some other loaded function, the ordering is credited).
//  2. Spawned bodies reach Done on every path — defer preferred. A Done
//     behind a branch or after an early return undercounts the join; a
//     body that never calls Done after an immediately preceding Add
//     hangs Wait forever.
//  3. Add must not run concurrently with Wait (clause 1's spawned-Add
//     rule is the schedule that breaks this).
//  4. WaitGroups travel by pointer. A by-value parameter or a plain
//     copy splits the counter: Done on the copy never releases Wait on
//     the original.
//
// Spawn-site argument flow follows `go worker(&wg)` into the named
// callee's declaration, mapping its *sync.WaitGroup parameters back to
// the caller's identities, so the split-function spawn idiom is checked
// the same as the inline literal.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WgSync enforces the WaitGroup pairing protocol.
var WgSync = &Analyzer{
	Name:   "wgsync",
	Doc:    "sync.WaitGroup joins: Add precedes the spawn it covers, spawned bodies defer Done on every path, no Add inside the goroutine, no WaitGroup by value or copy",
	Global: true,
	Run:    runWgSync,
}

func runWgSync(pass *Pass) {
	prog := pass.Prog
	addsAnywhere := make(map[string]bool)
	for _, node := range prog.nodes {
		walkOwnBody(node, func(n ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok {
				if key, _, ok := wgMethodCall(node.Pkg, call, "Add"); ok {
					addsAnywhere[key] = true
				}
			}
		})
	}
	for _, node := range prog.nodes {
		checkWgCopies(pass, node)
		checkWgFunc(pass, node, addsAnywhere)
	}
}

// isWaitGroupValue reports whether t is sync.WaitGroup itself (not a
// pointer to it).
func isWaitGroupValue(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// wgKey is the program-wide identity of a WaitGroup expression; a
// leading & is unwrapped so `&wg` and `wg` share one class.
func wgKey(pkg *Package, e ast.Expr) string {
	e = ast.Unparen(e)
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = ue.X
	}
	return chanKey(pkg, e)
}

// wgMethodCall matches a call of the named method on a sync.WaitGroup
// receiver and returns the receiver's identity key and expression.
func wgMethodCall(pkg *Package, call *ast.CallExpr, method string) (key string, recv ast.Expr, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != method {
		return "", nil, false
	}
	if _, isWG := isNamed(typeOf(pkg, sel.X), "sync", "WaitGroup"); !isWG {
		return "", nil, false
	}
	return wgKey(pkg, sel.X), sel.X, true
}

// ---- clause 4: by-value parameters and copies --------------------------

func checkWgCopies(pass *Pass, node *FuncNode) {
	pkg := node.Pkg
	var ft *ast.FuncType
	if node.Decl != nil {
		ft = node.Decl.Type
	} else {
		ft = node.Lit.Type
	}
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			if isWaitGroupValue(typeOf(pkg, field.Type)) {
				pass.Reportf(field.Pos(),
					"sync.WaitGroup passed by value — Add/Done/Wait act on a private copy of the counter; pass *sync.WaitGroup")
			}
		}
	}
	walkOwnBody(node, func(n ast.Node) {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return
		}
		for _, rhs := range assign.Rhs {
			rhs = ast.Unparen(rhs)
			switch rhs.(type) {
			case *ast.Ident, *ast.SelectorExpr:
			default:
				continue // composite literals, calls, & — not a counter copy
			}
			if isWaitGroupValue(typeOf(pkg, rhs)) {
				pass.Reportf(rhs.Pos(),
					"assignment copies the sync.WaitGroup %s — Done on the copy never releases Wait on the original; share a pointer",
					types.ExprString(rhs))
			}
		}
	})
}

// ---- clauses 1–3: per-spawn pairing ------------------------------------

// doneScan is what one spawned body does with a WaitGroup class.
type doneScan struct {
	deferred    bool      // a defer reaches Done (directly or via a deferred literal)
	plain       token.Pos // first non-deferred Done
	conditional bool      // that Done sits behind a branch or after a return
}

// checkWgFunc walks one function's statements in order, tracking Add
// sites, and validates every go statement against them.
func checkWgFunc(pass *Pass, node *FuncNode, addsAnywhere map[string]bool) {
	pkg := node.Pkg
	type addSite struct {
		key string
		pos token.Pos
	}
	var adds []addSite

	// addBefore reports whether an Add on key was seen before pos.
	addBefore := func(key string, pos token.Pos) bool {
		for _, a := range adds {
			if a.key == key && a.pos < pos {
				return true
			}
		}
		return false
	}

	var walkStmts func(stmts []ast.Stmt)
	var walkStmt func(s ast.Stmt, prev ast.Stmt)
	walkStmts = func(stmts []ast.Stmt) {
		var prev ast.Stmt
		for _, s := range stmts {
			walkStmt(s, prev)
			prev = s
		}
	}
	walkStmt = func(s ast.Stmt, prev ast.Stmt) {
		switch s := s.(type) {
		case nil:
		case *ast.BlockStmt:
			walkStmts(s.List)
		case *ast.LabeledStmt:
			walkStmt(s.Stmt, nil)
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if key, _, ok := wgMethodCall(pkg, call, "Add"); ok && key != "" {
					adds = append(adds, addSite{key, call.Pos()})
				}
			}
		case *ast.IfStmt:
			walkStmt(s.Init, nil)
			walkStmts(s.Body.List)
			walkStmt(s.Else, nil)
		case *ast.ForStmt:
			walkStmt(s.Init, nil)
			walkStmts(s.Body.List)
		case *ast.RangeStmt:
			walkStmts(s.Body.List)
		case *ast.SwitchStmt:
			walkStmt(s.Init, nil)
			for _, clause := range s.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					walkStmts(cc.Body)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, clause := range s.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					walkStmts(cc.Body)
				}
			}
		case *ast.SelectStmt:
			for _, clause := range s.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok {
					walkStmts(cc.Body)
				}
			}
		case *ast.GoStmt:
			checkSpawn(pass, pkg, node, s, prev, addBefore, addsAnywhere)
		}
	}
	walkStmts(node.body().List)
}

// checkSpawn validates one go statement: the spawned body's Done calls
// have a preceding Add, the Done is defer-shaped, and an immediately
// preceding Add is actually paired with a Done in the body.
func checkSpawn(pass *Pass, pkg *Package, node *FuncNode, gs *ast.GoStmt, prev ast.Stmt,
	addBefore func(string, token.Pos) bool, addsAnywhere map[string]bool) {

	dones := make(map[string]*doneScan)
	if fl, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		// Only a directly spawned literal is a join unit whose internal
		// Add races the spawner's Wait; a named callee is a whole
		// component that may legitimately run its own Add/Wait protocol.
		scanSpawnedBody(pass, pkg, fl.Body, nil, dones, true)
	} else {
		for _, callee := range pass.Prog.resolveCall(pkg, gs.Call) {
			if callee.Decl != nil {
				subst := wgParamSubst(pkg, gs.Call, callee)
				scanSpawnedBody(pass, callee.Pkg, callee.Decl.Body, subst, dones, false)
			}
		}
	}

	for key, scan := range dones {
		display := shortWgKey(key)
		if !addBefore(key, gs.Go) {
			// The Add may live in another function when the WaitGroup is
			// shared state (a struct field drained elsewhere); only a
			// class no loaded function ever Adds to is certainly wrong.
			if isLocalWgKey(key) || !addsAnywhere[key] {
				pass.Reportf(gs.Go,
					"goroutine calls %s.Done but no %s.Add precedes the spawn — Add must be ordered before the go statement, or Wait can return early",
					display, display)
			}
		}
		if !scan.deferred && scan.plain.IsValid() && scan.conditional {
			pass.Reportf(scan.plain,
				"%s.Done is not reached on every path of the spawned goroutine — defer %s.Done() at the top of the body",
				display, display)
		}
	}

	// An Add immediately before the spawn is this goroutine's unit; a
	// body that never calls Done on that class hangs Wait.
	if prevAdd, ok := immediateAdd(pkg, prev); ok && dones[prevAdd] == nil {
		display := shortWgKey(prevAdd)
		pass.Reportf(gs.Go,
			"goroutine spawned right after %s.Add never calls %s.Done — Wait hangs; defer %s.Done() in the body",
			display, display, display)
	}
}

// immediateAdd matches `wg.Add(...)` as the statement directly before a
// go statement and returns the WaitGroup class it increments.
func immediateAdd(pkg *Package, prev ast.Stmt) (string, bool) {
	es, ok := prev.(*ast.ExprStmt)
	if !ok {
		return "", false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	key, _, ok := wgMethodCall(pkg, call, "Add")
	if !ok || key == "" {
		return "", false
	}
	return key, true
}

// wgParamSubst maps the spawned callee's *sync.WaitGroup parameter
// identities to the caller-side argument identities, mirroring
// lifecycle's paramSubst.
func wgParamSubst(callerPkg *Package, call *ast.CallExpr, callee *FuncNode) map[string]string {
	subst := make(map[string]string)
	ft := callee.Decl.Type
	if ft.Params == nil {
		return subst
	}
	i := 0
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if i >= len(call.Args) {
				return subst
			}
			if obj, ok := callee.Pkg.Info.Defs[name].(*types.Var); ok {
				if argKey := wgKey(callerPkg, call.Args[i]); argKey != "" {
					subst[localKey(obj)] = argKey
				}
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return subst
}

// scanSpawnedBody records what the spawned body does with each WaitGroup
// class: deferred Dones, plain Dones (and whether they are conditional),
// and — when reportAdds is set (literal spawns only) — Adds, which are
// reported on the spot, because an Add on the spawned side of the go
// statement races Wait no matter what follows.
func scanSpawnedBody(pass *Pass, pkg *Package, body *ast.BlockStmt, subst map[string]string, dones map[string]*doneScan, reportAdds bool) {
	mapKey := func(key string) string {
		if mapped, ok := subst[key]; ok {
			return mapped
		}
		return key
	}
	record := func(key string) *doneScan {
		key = mapKey(key)
		if dones[key] == nil {
			dones[key] = &doneScan{}
		}
		return dones[key]
	}

	sawReturn := false
	var walk func(n ast.Node, depth int, inDefer bool)
	walk = func(n ast.Node, depth int, inDefer bool) {
		switch n := n.(type) {
		case *ast.FuncLit:
			return // a nested goroutine or stored closure, not this body
		case *ast.ReturnStmt:
			sawReturn = true
		case *ast.DeferStmt:
			// defer wg.Done() — or a deferred literal whose body reaches it.
			if key, _, ok := wgMethodCall(pkg, n.Call, "Done"); ok && key != "" {
				record(key).deferred = true
				return
			}
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(fl.Body, func(c ast.Node) bool {
					if call, ok := c.(*ast.CallExpr); ok {
						if key, _, ok := wgMethodCall(pkg, call, "Done"); ok && key != "" {
							record(key).deferred = true
						}
					}
					return true
				})
				return
			}
			walkChildren(n, func(c ast.Node) { walk(c, depth, true) })
			return
		case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			walkChildren(n, func(c ast.Node) { walk(c, depth+1, inDefer) })
			return
		case *ast.CallExpr:
			if key, recv, ok := wgMethodCall(pkg, n, "Done"); ok && key != "" {
				scan := record(key)
				if inDefer {
					scan.deferred = true
				} else if !scan.plain.IsValid() {
					scan.plain = n.Pos()
					scan.conditional = depth > 0 || sawReturn
				}
				_ = recv
			}
			if key, recv, ok := wgMethodCall(pkg, n, "Add"); ok && key != "" {
				if reportAdds && !definedWithin(pkg, recv, body) {
					pass.Reportf(n.Pos(),
						"%s.Add inside the spawned goroutine races Wait — the waiter can see the counter hit zero first; hoist the Add before the go statement",
						shortWgKey(mapKey(key)))
				}
			}
		}
		walkChildren(n, func(c ast.Node) { walk(c, depth, inDefer) })
	}
	walkChildren(body, func(c ast.Node) { walk(c, 0, false) })
}

// definedWithin reports whether the base variable of a receiver chain is
// declared inside body — a WaitGroup local to the goroutine is its own
// join domain and may Add freely.
func definedWithin(pkg *Package, recv ast.Expr, body *ast.BlockStmt) bool {
	recv = ast.Unparen(recv)
	for {
		if sel, ok := recv.(*ast.SelectorExpr); ok {
			recv = ast.Unparen(sel.X)
			continue
		}
		break
	}
	id, ok := recv.(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := pkg.Info.Uses[id].(*types.Var)
	if !ok {
		if def, okDef := pkg.Info.Defs[id].(*types.Var); okDef {
			obj = def
		} else {
			return false
		}
	}
	return obj.Pos() >= body.Pos() && obj.Pos() <= body.End()
}

// isLocalWgKey reports whether a WaitGroup class key names a function
// local (where the whole Add/spawn ordering is visible) rather than a
// field or package variable shared across functions.
func isLocalWgKey(key string) bool {
	return len(key) > 6 && key[:6] == "local:"
}

// shortWgKey compresses a class key for diagnostics: locals render as
// their variable name, fields and package vars as their dotted tail.
func shortWgKey(key string) string {
	if isLocalWgKey(key) {
		rest := key[6:]
		for i := 0; i < len(rest); i++ {
			if rest[i] == ':' {
				return rest[:i]
			}
		}
		return rest
	}
	return shortName(key)
}

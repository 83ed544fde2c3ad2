// Checker lifecycle: every spawned goroutine has a shutdown path. The
// monitor's long-lived goroutines (proxy splices, the collector's reader,
// agent serve loops) park in blocking operations, and the only way to
// stop one is a signal that reaches it. Every `go` statement — a literal,
// or a named function resolved through the call graph — has its spawned
// body walked once, and each loop in it is reported at most once, on the
// loop's line, when it has one of three shapes:
//
//  1. A condition-less `for` that reaches a blocking operation (a channel
//     send, receive, range or select, time.Sleep, WaitGroup.Wait, net
//     I/O — directly or through any resolvable call chain) and cannot
//     exit. A sleep-poll loop has no channel and still leaks.
//  2. A `range` over a channel that no loaded package closes, with no
//     return or break. A close() in the spawner is credited to the
//     spawned function's parameter through the spawn-site arguments.
//  3. Any other loop — one that ends on its own — whose body receives
//     from a channel and cannot exit: it parks in the receive forever
//     once the sender stops.
//
// A loop can exit through a return, a break or goto that leaves it, or —
// except for range loops — a select with a cancellation-shaped case
// (`<-ctx.Done()`-style, `<-time.After(...)`, or comma-ok).

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lifecycle reports spawned goroutine loops with no shutdown path.
var Lifecycle = &Analyzer{
	Name:   "lifecycle",
	Doc:    "spawned goroutines need a shutdown path: a loop that blocks, ranges over a never-closed channel, or receives must have a ctx.Done()/quit select case, a reachable close, or a return/break",
	Global: true,
	Run:    runLifecycle,
}

func runLifecycle(pass *Pass) {
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
					subst := paramSubst(pkg, gs.Call, pkg, fl.Type)
					checkSpawnedBody(pass, pkg, fl.Body, gs.Go, subst, blocks, reported)
					return true
				}
				for _, callee := range prog.resolveCall(pkg, gs.Call) {
					if callee.Decl != nil {
						subst := paramSubst(pkg, gs.Call, callee.Pkg, callee.Decl.Type)
						checkSpawnedBody(pass, callee.Pkg, callee.Decl.Body, gs.Go, subst, blocks, reported)
					}
				}
				return true
			})
		}
	}
}

// paramSubst maps the spawned function's parameter identities to the
// caller-side identities of the arguments at the spawn site, so a
// `close(ch)` in the spawner is credited to a `for range ch` over the
// corresponding parameter in the spawned body.
func paramSubst(callerPkg *Package, call *ast.CallExpr, calleePkg *Package, ft *ast.FuncType) map[string]string {
	subst := make(map[string]string)
	if ft.Params == nil {
		return subst
	}
	i := 0
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if i >= len(call.Args) {
				return subst
			}
			if obj, ok := calleePkg.Info.Defs[name].(*types.Var); ok {
				if argKey := chanKey(callerPkg, call.Args[i]); argKey != "" {
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

// checkSpawnedBody reports every loop in one goroutine body that has no
// shutdown path. Nested function literals are skipped — they are
// separate goroutines (or stored closures) with their own spawn sites.
func checkSpawnedBody(pass *Pass, pkg *Package, body *ast.BlockStmt, spawn token.Pos, subst map[string]string, blocks map[*FuncNode]*reached[blockSite], reported map[token.Pos]bool) {
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		var at token.Pos
		var msg string
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ForStmt:
			if at = n.For; !reported[at] {
				msg = forLoopLeak(pass, pkg, n, blocks)
			}
		case *ast.RangeStmt:
			if at = n.For; !reported[at] {
				msg = rangeLoopLeak(pass, pkg, n, subst)
			}
		}
		if msg != "" {
			reported[at] = true
			pass.Reportf(at, "goroutine (spawned at %s) %s", pass.Prog.shortPos(spawn), msg)
		}
		walkChildren(n, walk)
	}
	walk(body)
}

// forLoopLeak describes why a `for` loop never ends (shapes 1 and 3), or
// returns "" when it has a way out.
func forLoopLeak(pass *Pass, pkg *Package, loop *ast.ForStmt, blocks map[*FuncNode]*reached[blockSite]) string {
	if loop.Cond != nil {
		return receiveLoopLeak(pkg, loop.Body)
	}
	if what := loopBlocks(pass, pkg, loop.Body, blocks); what != "" && !loopCanExit(pkg, loop.Body, true) {
		return "loops forever into " + what + " with no exit and no cancellation signal — accept and thread a context.Context or stop channel"
	}
	return ""
}

// rangeLoopLeak describes why a `range` loop never ends (shapes 2 and
// 3), or returns "" when it has a way out. A range over a channel exits
// only when the channel is closed or the body leaves the loop.
func rangeLoopLeak(pass *Pass, pkg *Package, loop *ast.RangeStmt, subst map[string]string) string {
	if !isChanType(typeOf(pkg, loop.X)) {
		return receiveLoopLeak(pkg, loop.Body)
	}
	if loopCanExit(pkg, loop.Body, false) {
		return ""
	}
	if key := chanKey(pkg, loop.X); key != "" {
		if mapped, ok := subst[key]; ok {
			key = mapped
		}
		if pass.Prog.closedChans[key] {
			return receiveLoopLeak(pkg, loop.Body)
		}
	}
	return "ranges over a channel that no loaded package closes and the loop has no return/break — no shutdown path"
}

// receiveLoopLeak is shape 3: a loop that ends on its own still parks
// for good when its body receives from a channel whose sender has
// stopped, unless the body can leave the loop.
func receiveLoopLeak(pkg *Package, body *ast.BlockStmt) string {
	if !loopReceives(body) || loopCanExit(pkg, body, true) {
		return ""
	}
	return "receives from a channel in a loop with no ctx.Done()/close/timeout escape; it leaks if the sender stops"
}

// loopReceives reports whether the loop body receives from a channel,
// outside nested function literals and nested loops (those are judged
// on their own).
func loopReceives(body *ast.BlockStmt) bool {
	found := false
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt:
			return
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		}
		if !found {
			walkChildren(n, walk)
		}
	}
	walkChildren(body, walk)
	return found
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

// loopCanExit reports whether the loop body can leave the loop: a
// return, a break that targets this loop (plain break not swallowed by
// an inner select/switch/loop, or any labeled break/goto, which always
// jumps at least this far out), or — when selects count as signals — a
// select carrying a cancellation-shaped case.
func loopCanExit(pkg *Package, body *ast.BlockStmt, selectSignals bool) bool {
	exits := false
	// depth counts enclosing constructs that capture a plain `break`.
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if exits {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ReturnStmt:
			exits = true
			return
		case *ast.BranchStmt:
			switch n.Tok {
			case token.BREAK:
				if n.Label != nil || depth == 0 {
					exits = true
				}
			case token.GOTO:
				exits = true
			}
			return
		case *ast.ForStmt, *ast.RangeStmt:
			walkChildren(n, func(c ast.Node) { walk(c, depth+1) })
			return
		case *ast.SwitchStmt, *ast.TypeSwitchStmt:
			walkChildren(n, func(c ast.Node) { walk(c, depth+1) })
			return
		case *ast.SelectStmt:
			if selectSignals && selectHasEscapeInfo(pkg.Info, n) {
				exits = true
				return
			}
			walkChildren(n, func(c ast.Node) { walk(c, depth+1) })
			return
		}
		walkChildren(n, func(c ast.Node) { walk(c, depth) })
	}
	walk(body, 0)
	return exits
}

// selectHasEscapeInfo reports whether the select has a case that can
// observe cancellation: a receive from a `*.Done()` call, a receive from
// `time.After(...)`, or a comma-ok receive.
func selectHasEscapeInfo(info *types.Info, sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		var recv ast.Expr
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			recv = comm.X
		case *ast.AssignStmt:
			if len(comm.Lhs) == 2 {
				return true // comma-ok case observes closure
			}
			if len(comm.Rhs) == 1 {
				recv = comm.Rhs[0]
			}
		}
		ue, ok := recv.(*ast.UnaryExpr)
		if !ok || ue.Op != token.ARROW {
			continue
		}
		if isEscapeChannelInfo(info, ue.X) {
			return true
		}
	}
	return false
}

func isEscapeChannelInfo(info *types.Info, ch ast.Expr) bool {
	call, ok := ch.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name == "Done" {
		return true
	}
	if sel.Sel.Name == "After" {
		if obj, ok := info.Uses[sel.Sel].(*types.Func); ok {
			if pkg := obj.Pkg(); pkg != nil && pkg.Path() == "time" {
				return true
			}
		}
	}
	return false
}

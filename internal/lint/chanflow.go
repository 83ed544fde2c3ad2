// Checker chanflow: channel ownership and protocol. The monitor's legs
// talk over channels — barrier/dump waiters in the controller server,
// splice joins in the proxy, verdict fan-in in the collector — and every
// channel bug (double close, send on a closed channel, a forgotten
// buffer assumption) surfaces as a runtime panic or a silent wedge in
// exactly the component that is supposed to adjudicate faults. The
// checker enforces five clauses, whole-program where ownership crosses
// functions:
//
//  1. Exactly one closer. A channel class (same field, package var, or
//     local identity; closes through call and spawn-site arguments are
//     projected back to the caller's channel) may be closed from at most
//     one place. Two close sites in *different* functions — or any close
//     racing a go-spawned close — is a double-close waiting on a
//     schedule. (Two sites on disjoint branches of one function are left
//     to the path-sensitive clause 2, which does not cross branches.)
//  2. No send after close, path-sensitively within a function: a send
//     that follows a close of the same channel on a straight-line path
//     panics; so does a second close. A close inside a loop of a channel
//     declared outside the loop double-closes on the next iteration, and
//     a close of a `var ch chan T` that was never made panics on nil.
//     (Closing a receive-only `<-chan` is already a compile error; the
//     flow clauses cover what the compiler cannot see.)
//  3. No consumer-side close: a function that receives from a channel
//     and never sends on it does not own the close — a producer still
//     sending panics. Signal channels that are only ever closed (never
//     received in the closing function) are the legitimate pattern and
//     stay silent.
//  4. No select-default busy-spin: a for loop whose only way to pass
//     time is a select with a default case spins a core. The loop is
//     accepted when the default path — or the loop body outside the
//     select — blocks or yields (channel op, time.Sleep, net I/O,
//     runtime.Gosched, or a resolvable callee that blocks).
//  5. Buffered channels are documented decisions: every make(chan T, n)
//     with non-zero capacity carries a `// chan: buffered <n> — <reason>`
//     annotation (same line or the line above) whose <n> matches the
//     constant capacity. Buffer sizes encode protocol assumptions
//     ("one slot per splice goroutine") that the next reader cannot
//     reconstruct from the make call alone.

package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strconv"
	"strings"
)

// ChanFlow enforces the channel ownership and protocol clauses.
var ChanFlow = &Analyzer{
	Name:   "chanflow",
	Doc:    "channel protocol: one closer per channel, no send after close/double-close/nil-close, no consumer-side close, no select-default busy-spin, buffered make(chan) annotated `// chan: buffered <n> — <reason>`",
	Global: true,
	Run:    runChanFlow,
}

func runChanFlow(pass *Pass) {
	checkBufferedMakes(pass)
	checkCloseOwnership(pass)
	for _, node := range pass.Prog.nodes {
		checkChanFunc(pass, node)
		checkBusySpin(pass, node)
	}
}

// ---- clause 5: buffered-channel annotation contract --------------------

// chanAnnPrefix is the buffered-channel annotation grammar:
// `// chan: buffered <n> — <reason>`.
const chanAnnPrefix = "chan: buffered "

// chanAnnotations maps each line a buffered-channel annotation covers
// (its own line, for trailing comments, and the line below, for comments
// above the make) to the annotation's <n> token. A malformed annotation
// (no reason after the separator) maps to "".
func chanAnnotations(fset *token.FileSet, file *ast.File) map[int]string {
	ann := make(map[int]string)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(c.Text), "//"))
			if !strings.HasPrefix(text, chanAnnPrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, chanAnnPrefix))
			capTok, reason, ok := strings.Cut(rest, " ")
			n := ""
			if ok {
				reason = strings.TrimSpace(reason)
				for _, sep := range []string{"—", "--", "-"} {
					if after, found := strings.CutPrefix(reason, sep); found {
						if strings.TrimSpace(after) != "" {
							n = capTok
						}
						break
					}
				}
			}
			line := fset.Position(c.Pos()).Line
			ann[line] = n
			ann[line+1] = n
		}
	}
	return ann
}

func checkBufferedMakes(pass *Pass) {
	for _, pkg := range pass.Prog.Pkgs {
		for _, file := range pkg.Files {
			ann := chanAnnotations(pass.Fset, file)
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 2 {
					return true
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || id.Name != "make" {
					return true
				}
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
					return true
				}
				if !isChanType(typeOf(pkg, call.Args[0])) {
					return true
				}
				capVal := -1 // -1: not a constant
				if tv, ok := pkg.Info.Types[call.Args[1]]; ok && tv.Value != nil {
					if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
						capVal = int(v)
					}
				}
				if capVal == 0 {
					return true // explicitly unbuffered
				}
				line := pass.Fset.Position(call.Pos()).Line
				capTok, annotated := ann[line]
				switch {
				case !annotated:
					pass.Reportf(call.Pos(),
						"buffered channel (cap %s) without a justification — annotate `// chan: buffered %s — <reason>` or make it unbuffered",
						capText(capVal, call.Args[1]), capText(capVal, call.Args[1]))
				case capTok == "":
					pass.Reportf(call.Pos(),
						"malformed buffered-channel annotation — the grammar is `// chan: buffered <n> — <reason>` with a non-empty reason")
				case capVal >= 0 && capTok != strconv.Itoa(capVal):
					pass.Reportf(call.Pos(),
						"buffered-channel annotation says %q but the capacity is %d — keep the annotation in sync with the make", capTok, capVal)
				}
				return true
			})
		}
	}
}

// capText renders the capacity for diagnostics: the constant value when
// known, the source expression otherwise.
func capText(capVal int, e ast.Expr) string {
	if capVal >= 0 {
		return strconv.Itoa(capVal)
	}
	return types.ExprString(e)
}

// ---- clause 1: exactly one closer --------------------------------------

// closeSite is one place a channel class is closed: directly, or through
// a call/spawn whose callee (transitively) closes the argument.
type closeSite struct {
	pos     token.Pos
	node    *FuncNode // function the site is written in
	spawned bool      // the close happens on a go-spawned goroutine
	display string    // source rendering of the channel expression
}

// checkCloseOwnership collects every close site per channel class and
// reports classes with more than one owner. Within a single function the
// extra sites may be branch-disjoint (the error path closes, the happy
// path closes later), so same-function pairs are left to the
// path-sensitive clause; cross-function and spawned pairs always report.
func checkCloseOwnership(pass *Pass) {
	prog := pass.Prog
	closesParam := closesParamFixpoint(prog)
	sites := make(map[string][]closeSite)

	for _, node := range prog.nodes {
		pkg := node.Pkg
		spawnCalls := make(map[*ast.CallExpr]bool)
		walkOwnBody(node, func(n ast.Node) {
			if gs, ok := n.(*ast.GoStmt); ok {
				spawnCalls[gs.Call] = true
			}
		})
		walkOwnBody(node, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if ch, ok := closeArg(pkg, call); ok {
				if key := chanKey(pkg, ch); key != "" {
					sites[key] = append(sites[key], closeSite{
						pos: call.Pos(), node: node, display: types.ExprString(ch),
					})
				}
				return
			}
			for _, callee := range prog.resolveCall(pkg, call) {
				for _, idx := range closesParam[callee] {
					if idx >= len(call.Args) {
						continue
					}
					if key := chanKey(pkg, call.Args[idx]); key != "" {
						sites[key] = append(sites[key], closeSite{
							pos: call.Pos(), node: node, spawned: spawnCalls[call],
							display: types.ExprString(call.Args[idx]),
						})
					}
				}
			}
		})
	}

	for _, list := range sites {
		if len(list) < 2 {
			continue
		}
		sort.Slice(list, func(i, j int) bool { return list[i].pos < list[j].pos })
		crossFunction, anySpawned := false, false
		for _, s := range list {
			if s.node != list[0].node {
				crossFunction = true
			}
			if s.spawned {
				anySpawned = true
			}
		}
		if !crossFunction && !anySpawned {
			continue // same-function branch-disjoint closes: clause 2's job
		}
		for _, s := range list[1:] {
			pass.Reportf(s.pos,
				"channel %s is also closed at %s — a channel has exactly one closing owner; route shutdown through it",
				s.display, pass.Prog.shortPos(list[0].pos))
		}
	}
}

// closeArg returns the channel argument of a builtin close(ch) call.
func closeArg(pkg *Package, call *ast.CallExpr) (ast.Expr, bool) {
	if len(call.Args) != 1 {
		return nil, false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" {
		return nil, false
	}
	if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return nil, false
	}
	return call.Args[0], true
}

// closesParamFixpoint computes, for every function, the parameter
// indices whose channel the function closes — directly or by forwarding
// the parameter to another closing function — to a fixpoint, so a
// close() three helpers deep is still projected onto the caller's
// channel expression at the original call site.
func closesParamFixpoint(prog *Program) map[*FuncNode][]int {
	paramIdx := make(map[*FuncNode]map[*types.Var]int)
	for _, node := range prog.nodes {
		idx := paramObjects(node)
		if len(idx) > 0 {
			paramIdx[node] = idx
		}
	}
	result := make(map[*FuncNode]map[int]bool)
	fixpoint(0, func() bool {
		changed := false
		for _, node := range prog.nodes {
			params := paramIdx[node]
			if params == nil {
				continue
			}
			walkOwnBody(node, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				record := func(arg ast.Expr) {
					id, ok := ast.Unparen(arg).(*ast.Ident)
					if !ok {
						return
					}
					obj, ok := node.Pkg.Info.Uses[id].(*types.Var)
					if !ok {
						return
					}
					if idx, isParam := params[obj]; isParam {
						if result[node] == nil {
							result[node] = make(map[int]bool)
						}
						if !result[node][idx] {
							result[node][idx] = true
							changed = true
						}
					}
				}
				if ch, ok := closeArg(node.Pkg, call); ok {
					record(ch)
					return
				}
				for _, callee := range prog.resolveCall(node.Pkg, call) {
					for idx := range result[callee] {
						if idx < len(call.Args) {
							record(call.Args[idx])
						}
					}
				}
			})
		}
		return changed
	})
	out := make(map[*FuncNode][]int, len(result))
	for node, set := range result {
		for idx := range set {
			out[node] = append(out[node], idx)
		}
		sort.Ints(out[node])
	}
	return out
}

// paramObjects maps a function's channel-typed parameter objects to
// their positional index.
func paramObjects(node *FuncNode) map[*types.Var]int {
	var ft *ast.FuncType
	if node.Decl != nil {
		ft = node.Decl.Type
	} else {
		ft = node.Lit.Type
	}
	if ft.Params == nil {
		return nil
	}
	idx := make(map[*types.Var]int)
	i := 0
	for _, field := range ft.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if obj, ok := node.Pkg.Info.Defs[name].(*types.Var); ok && isChanType(obj.Type()) {
				idx[obj] = i
			}
			i++
		}
	}
	if len(idx) == 0 {
		return nil
	}
	return idx
}

// walkOwnBody applies f to every node in the function's own body,
// without descending into nested function literals (they are separate
// FuncNodes with their own walk).
func walkOwnBody(node *FuncNode, f func(ast.Node)) {
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if _, ok := n.(*ast.FuncLit); ok {
			return
		}
		f(n)
		walkChildren(n, walk)
	}
	body := node.body()
	f(body)
	walkChildren(body, walk)
}

// ---- clauses 2 & 3: per-function channel flow --------------------------

// chanFlowState is the path state of the sequential walk: channels
// closed so far on this path and channels still nil (declared, never
// made).
type chanFlowState struct {
	closed   map[string]token.Pos
	nilChans map[string]token.Pos
	declLoop map[string]int // loop depth at declaration
}

func (st *chanFlowState) clone() *chanFlowState {
	return &chanFlowState{
		closed:   maps.Clone(st.closed),
		nilChans: maps.Clone(st.nilChans),
		declLoop: st.declLoop, // shared: declarations are path-independent facts
	}
}

// join drops every branch exit: a close inside one branch is not assumed
// on the joined path — "may" semantics would flood disjoint error/happy
// close pairs with false positives.
func (st *chanFlowState) join([]*chanFlowState) *chanFlowState { return st }

// checkChanFunc runs the consumer-close scan and the path-sensitive
// close/send sequence analysis over one function body.
func checkChanFunc(pass *Pass, node *FuncNode) {
	pkg := node.Pkg

	// Flat pre-scan: which channel classes does this function send on /
	// receive from, in its own body?
	sent, received := make(map[string]bool), make(map[string]bool)
	walkOwnBody(node, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.SendStmt:
			if key := chanKey(pkg, n.Chan); key != "" {
				sent[key] = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if key := chanKey(pkg, n.X); key != "" {
					received[key] = true
				}
			}
		case *ast.RangeStmt:
			if isChanType(typeOf(pkg, n.X)) {
				if key := chanKey(pkg, n.X); key != "" {
					received[key] = true
				}
			}
		}
	})
	walkOwnBody(node, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if ch, chOK := closeArg(pkg, call); chOK {
			key := chanKey(pkg, ch)
			if key != "" && received[key] && !sent[key] {
				pass.Reportf(call.Pos(),
					"close of %s, which %s only receives from — the sending side owns the close; a producer still sending would panic",
					types.ExprString(ch), node.Name)
			}
		}
	})

	w := &chanWalker{pass: pass, pkg: pkg}
	w.flowWalker = flowWalker[*chanFlowState]{
		state: &chanFlowState{
			closed:   make(map[string]token.Pos),
			nilChans: make(map[string]token.Pos),
			declLoop: make(map[string]int),
		},
		leaf:  w.leafStmt,
		comms: true,
	}
	w.stmt(node.body())
}

// chanWalker threads the close/nil state through one body; it looks only
// at statements (closes, sends, declarations, assignments), never inside
// expressions.
type chanWalker struct {
	flowWalker[*chanFlowState]
	pass *Pass
	pkg  *Package
}

func (w *chanWalker) leafStmt(s ast.Stmt) bool {
	pkg, st := w.pkg, w.state
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if ch, chOK := closeArg(pkg, call); chOK {
				w.close(call, ch, false)
			}
		}
	case *ast.DeferStmt:
		if ch, ok := closeArg(pkg, s.Call); ok {
			w.close(s.Call, ch, true)
		}
	case *ast.SendStmt:
		key := chanKey(pkg, s.Chan)
		if key == "" {
			break
		}
		if closedAt, isClosed := st.closed[key]; isClosed {
			w.pass.Reportf(s.Arrow,
				"send on %s after it was closed at %s — this path panics",
				types.ExprString(s.Chan), w.pass.Prog.shortPos(closedAt))
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			break
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) != 0 {
				continue
			}
			for _, name := range vs.Names {
				if obj, ok := pkg.Info.Defs[name].(*types.Var); ok && isChanType(obj.Type()) {
					key := localKey(obj)
					st.nilChans[key] = name.Pos()
					st.declLoop[key] = w.loops
				}
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			key := chanKey(pkg, lhs)
			if key == "" {
				continue
			}
			// A defining ident has no Types entry; resolve through its
			// object so := bindings register like = assignments.
			var lhsType types.Type
			if id, okID := ast.Unparen(lhs).(*ast.Ident); okID {
				if obj, okObj := objectOf(pkg, id); okObj {
					lhsType = obj.Type()
				}
			} else {
				lhsType = typeOf(pkg, lhs)
			}
			if !isChanType(lhsType) {
				continue
			}
			// Any assignment rebinds the variable: it is no longer the
			// closed (or nil) channel value this path saw before.
			delete(st.closed, key)
			delete(st.nilChans, key)
			if s.Tok == token.DEFINE {
				st.declLoop[key] = w.loops
			}
		}
	}
	return true
}

// close handles one close site in the sequential walk: nil close, double
// close on a path, and close-in-loop.
func (w *chanWalker) close(call *ast.CallExpr, ch ast.Expr, deferred bool) {
	key := chanKey(w.pkg, ch)
	if key == "" {
		return
	}
	st, prog := w.state, w.pass.Prog
	display := types.ExprString(ch)
	if declPos, isNil := st.nilChans[key]; isNil {
		w.pass.Reportf(call.Pos(),
			"close of %s, which was declared at %s and never made — closing a nil channel panics",
			display, prog.shortPos(declPos))
		return
	}
	if deferred {
		// Runs at function exit; it does not close the channel for the
		// statements that follow on this path.
		return
	}
	if prev, isClosed := st.closed[key]; isClosed {
		w.pass.Reportf(call.Pos(),
			"%s is closed twice on this path (first at %s) — the second close panics",
			display, prog.shortPos(prev))
		return
	}
	if decl, ok := st.declLoop[key]; (ok && w.loops > decl) || (!ok && w.loops > 0) {
		w.pass.Reportf(call.Pos(),
			"close of %s inside a loop it was not declared in — the next iteration double-closes",
			display)
	}
	st.closed[key] = call.Pos()
}

// ---- clause 4: select-default busy-spin --------------------------------

// checkBusySpin reports for loops whose iterations can pass without
// blocking because a select carries a default case and nothing else in
// the loop body (or the default path itself) blocks or yields.
func checkBusySpin(pass *Pass, node *FuncNode) {
	walkOwnBody(node, func(n ast.Node) {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return
		}
		var sel *ast.SelectStmt
		var def *ast.CommClause
		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			if sel != nil {
				return
			}
			switch n := n.(type) {
			case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt:
				return // nested frames are their own spin scope
			case *ast.SelectStmt:
				if cc := selectDefault(n); cc != nil {
					sel, def = n, cc
				}
				return // a select without default blocks; no spin here
			}
			walkChildren(n, walk)
		}
		walkChildren(loop.Body, walk)
		if sel == nil {
			return
		}
		// The spin path is: loop body outside the select, plus the
		// select's default clause. If either blocks or yields, every
		// iteration pays for its spin.
		if bodyBlocksOrYields(pass, node.Pkg, loop.Body, sel) || stmtsBlockOrYield(pass, node.Pkg, def.Body) {
			return
		}
		pass.Reportf(sel.Pos(),
			"select with a default case in a loop that never blocks — this busy-spins a core; block in the default path (or drop the default case)")
	})
}

// bodyBlocksOrYields reports whether the loop body outside skip contains
// a blocking or yielding operation.
func bodyBlocksOrYields(pass *Pass, pkg *Package, body *ast.BlockStmt, skip *ast.SelectStmt) bool {
	found := false
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if found {
			return
		}
		if n == ast.Node(skip) {
			return
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return
		}
		// Another select with a default is itself non-blocking, and its
		// comm cases do not block either; only its default path counts.
		if sel, ok := n.(*ast.SelectStmt); ok {
			if cc := selectDefault(sel); cc != nil {
				found = stmtsBlockOrYield(pass, pkg, cc.Body)
				return
			}
		}
		if nodeBlocksOrYields(pass, pkg, n) {
			found = true
			return
		}
		walkChildren(n, walk)
	}
	walkChildren(body, walk)
	return found
}

func stmtsBlockOrYield(pass *Pass, pkg *Package, stmts []ast.Stmt) bool {
	found := false
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if found {
			return
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return
		}
		if nodeBlocksOrYields(pass, pkg, n) {
			found = true
			return
		}
		walkChildren(n, walk)
	}
	for _, s := range stmts {
		walk(s)
	}
	return found
}

// nodeBlocksOrYields classifies one node as a blocking or yielding
// operation: channel ops, a select without default, intrinsic blockers
// (time.Sleep, net I/O, Wait), runtime.Gosched, or a call whose resolved
// callee may block.
func nodeBlocksOrYields(pass *Pass, pkg *Package, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.SendStmt:
		return true
	case *ast.UnaryExpr:
		return n.Op == token.ARROW
	case *ast.RangeStmt:
		return isChanType(typeOf(pkg, n.X))
	case *ast.SelectStmt:
		return selectDefault(n) == nil
	case *ast.CallExpr:
		sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
		if !ok {
			break
		}
		if intrinsicBlock(pkg, sel) != "" {
			return true
		}
		if obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil &&
			obj.Pkg().Path() == "runtime" && obj.Name() == "Gosched" {
			return true
		}
		blocks := pass.Prog.mayBlock()
		for _, callee := range pass.Prog.resolveCall(pkg, n) {
			if blocks[callee] != nil {
				return true
			}
		}
	}
	return false
}

// Interprocedural lockset dataflow. Each function body is walked once in
// rough evaluation order, threading an ordered list of held mutexes:
// Lock/RLock pushes, Unlock/RUnlock pops, `defer mu.Unlock()` keeps the
// mutex held to the end of the body (which is what the idiom means).
// Branches run on a clone of the set and merge by union ("may hold"), so
// the early-exit `if closed { mu.Unlock(); return }` pattern does not
// poison the fallthrough path. The walk records, per function:
//
//   - acquisitions (for the global lock-order graph),
//   - nested acquisitions (direct lock-order edges),
//   - blocking operations with the lockset at that point,
//   - resolved call sites with the lockset at the call.
//
// Two fixpoints over the call graph lift this interprocedurally: the set
// of mutexes a call may transitively acquire (lockorder) and whether a
// call may transitively block (lockedblock). `go` statements cut both
// propagations — a spawned goroutine neither blocks its spawner nor
// nests its acquisitions under the spawner's locks.
//
// Mutexes are tracked as program-wide *classes* ("controller.Server.mu",
// not one instance per Server), the standard lockset abstraction; the
// analyzers never report same-class self-edges, which would be instance
// aliasing noise.

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockKey identifies a mutex class program-wide.
type lockKey string

// heldLock is one held mutex with the Lock() site that acquired it.
type heldLock struct {
	key lockKey
	pos token.Pos
}

// orderEdge records "from was held when to was acquired".
type orderEdge struct {
	from, to       lockKey
	fromPos, toPos token.Pos
	via            string // "" for direct nesting, else the callee chain
}

// blockSite is one potentially blocking operation.
type blockSite struct {
	pos  token.Pos
	what string
	held []heldLock
}

// callSite is one resolved call with the caller's lockset.
type callSite struct {
	pos     token.Pos
	name    string
	callees []*FuncNode
	held    []heldLock
	spawned bool // `go` statement: callee runs on its own goroutine
}

// Summary is the per-function lock behavior.
type Summary struct {
	acquires map[lockKey]token.Pos
	edges    []orderEdge
	blocks   []blockSite
	calls    []callSite
}

// lockKeyOf classifies the receiver of a Lock/Unlock call, returning ""
// when the mutex has no stable identity (map elements, call results).
func lockKeyOf(pkg *Package, owner *FuncNode, e ast.Expr) lockKey {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj, ok := pkg.Info.Uses[e].(*types.Var)
		if !ok {
			return ""
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return lockKey(obj.Pkg().Path() + "." + obj.Name())
		}
		return lockKey(fmt.Sprintf("%s#%s", owner.Name, obj.Name()))
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if named, okNamed := derefNamed(sel.Recv()); okNamed && named.Obj().Pkg() != nil {
				return lockKey(named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name)
			}
			return ""
		}
		if obj, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok && obj.Pkg() != nil {
			return lockKey(obj.Pkg().Path() + "." + obj.Name())
		}
	}
	return ""
}

// display shortens a lockKey for diagnostics.
func (k lockKey) display() string { return shortName(string(k)) }

func heldKeys(held []heldLock) string {
	names := make([]string, len(held))
	for i, h := range held {
		names[i] = h.key.display()
	}
	return strings.Join(names, ", ")
}

// heldSet is the lockset path state: the mutexes held, in acquisition
// order.
type heldSet []heldLock

func (h heldSet) clone() heldSet { return append(heldSet(nil), h...) }

// join is "may hold": the entry set plus every lock a branch exit holds.
func (h heldSet) join(outs []heldSet) heldSet {
	for _, out := range outs {
		for _, l := range out {
			if !h.holds(l.key) {
				h = append(h, l)
			}
		}
	}
	return h
}

func (h heldSet) holds(key lockKey) bool {
	for _, l := range h {
		if l.key == key {
			return true
		}
	}
	return false
}

// walker threads the lockset through one function body.
type walker struct {
	flowWalker[heldSet]
	prog *Program
	node *FuncNode
}

// summarize walks one node's body, filling node.Sum. Function literals
// encountered inside are registered as fresh nodes (analyzed later with
// an empty entry lockset) and the walk does not descend into them except
// to record a call site when the literal is invoked or deferred in place.
func (p *Program) summarize(node *FuncNode) {
	node.Sum = &Summary{acquires: make(map[lockKey]token.Pos)}
	w := &walker{prog: p, node: node}
	// Select communications are not walked: the select-level block in
	// enterStmt already covers them, and walking them too would
	// double-report one blocked select.
	w.flowWalker = flowWalker[heldSet]{leaf: w.leafStmt, expr: w.walkExpr, enter: w.enterStmt}
	w.stmt(node.body())
}

func (w *walker) sum() *Summary { return w.node.Sum }

func (w *walker) leafStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.SendStmt:
		w.walkExpr(s.Chan)
		w.walkExpr(s.Value)
		w.block(s.Arrow, "channel send")
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.walkExpr(e)
		}
		for _, e := range s.Lhs {
			w.walkExpr(e)
		}
	case *ast.GoStmt:
		w.walkCall(s.Call, true)
	case *ast.DeferStmt:
		// `defer mu.Unlock()` keeps the mutex held for the rest of the
		// body; any other deferred call is treated as running here.
		sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr)
		return ok && (sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock") &&
			isMutexType(typeOf(w.node.Pkg, sel.X))
	default:
		return false
	}
	return true
}

func (w *walker) enterStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.RangeStmt:
		if isChanType(typeOf(w.node.Pkg, s.X)) {
			w.block(s.For, "channel receive (range)")
		}
	case *ast.SelectStmt:
		if selectDefault(s) == nil {
			w.block(s.Select, "select with no default")
		}
	}
}

func (w *walker) walkExpr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.walkCall(e, false)
	case *ast.UnaryExpr:
		w.walkExpr(e.X)
		if e.Op == token.ARROW {
			w.block(e.Pos(), "channel receive")
		}
	case *ast.FuncLit:
		w.registerLit(e)
	case *ast.BinaryExpr:
		w.walkExpr(e.X)
		w.walkExpr(e.Y)
	case *ast.ParenExpr:
		w.walkExpr(e.X)
	case *ast.StarExpr:
		w.walkExpr(e.X)
	case *ast.SelectorExpr:
		w.walkExpr(e.X)
	case *ast.IndexExpr:
		w.walkExpr(e.X)
		w.walkExpr(e.Index)
	case *ast.SliceExpr:
		w.walkExpr(e.X)
		w.walkExpr(e.Low)
		w.walkExpr(e.High)
		w.walkExpr(e.Max)
	case *ast.TypeAssertExpr:
		w.walkExpr(e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			w.walkExpr(elt)
		}
	case *ast.KeyValueExpr:
		w.walkExpr(e.Key)
		w.walkExpr(e.Value)
	}
}

// registerLit queues a function literal as its own analysis root.
func (w *walker) registerLit(fl *ast.FuncLit) *FuncNode {
	pos := w.prog.Fset.Position(fl.Pos())
	node := &FuncNode{
		Name: fmt.Sprintf("func@%s:%d", shortBase(pos.Filename), pos.Line),
		Lit:  fl,
		Pkg:  w.node.Pkg,
	}
	w.prog.nodes = append(w.prog.nodes, node)
	return node
}

func shortBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// walkCall evaluates a call: receiver/args first, then the mutex ops,
// intrinsic blockers, and resolved call edges the call implies.
func (w *walker) walkCall(call *ast.CallExpr, spawned bool) {
	fun := ast.Unparen(call.Fun)
	// Evaluate the callee expression (a receiver chain may itself
	// contain receives or calls) and the arguments.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		w.walkExpr(sel.X)
	} else if _, isLit := fun.(*ast.FuncLit); !isLit {
		w.walkExpr(fun)
	}
	for _, arg := range call.Args {
		w.walkExpr(arg)
	}

	pkg := w.node.Pkg
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		// Mutex operations on sync.Mutex / sync.RWMutex receivers.
		if recvT := typeOf(pkg, sel.X); recvT != nil && isMutexType(recvT) {
			key := lockKeyOf(pkg, w.node, sel.X)
			switch sel.Sel.Name {
			case "Lock", "RLock":
				if key == "" {
					return
				}
				for _, h := range w.state {
					if h.key != key {
						w.sum().edges = append(w.sum().edges, orderEdge{
							from: h.key, to: key, fromPos: h.pos, toPos: call.Pos(),
						})
					}
				}
				w.state = append(w.state, heldLock{key: key, pos: call.Pos()})
				if _, seen := w.sum().acquires[key]; !seen {
					w.sum().acquires[key] = call.Pos()
				}
				return
			case "Unlock", "RUnlock":
				for i := len(w.state) - 1; i >= 0; i-- {
					if w.state[i].key == key {
						w.state = append(w.state[:i], w.state[i+1:]...)
						break
					}
				}
				return
			}
		}
		// Intrinsically blocking stdlib operations.
		if what := intrinsicBlock(pkg, sel); what != "" && !spawned {
			w.block(call.Pos(), what)
			return
		}
		// sync.Cond.Wait releases the lock while parked: not a blocking
		// op under its own mutex, and not a resolvable call either.
		if sel.Sel.Name == "Wait" {
			if _, isCond := isNamed(typeOf(pkg, sel.X), "sync", "Cond"); isCond {
				return
			}
		}
	}

	// A literal invoked or deferred in place is a direct call edge.
	if fl, ok := fun.(*ast.FuncLit); ok {
		node := w.registerLit(fl)
		w.sum().calls = append(w.sum().calls, callSite{
			pos: call.Pos(), name: node.Name,
			callees: []*FuncNode{node}, held: w.state.clone(), spawned: spawned,
		})
		return
	}

	callees := w.prog.resolveCall(pkg, call)
	if len(callees) == 0 && !spawned {
		return
	}
	name := callDisplayName(fun, callees)
	w.sum().calls = append(w.sum().calls, callSite{
		pos: call.Pos(), name: name,
		callees: callees, held: w.state.clone(), spawned: spawned,
	})
}

func callDisplayName(fun ast.Expr, callees []*FuncNode) string {
	if len(callees) == 1 {
		return callees[0].Name
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "call"
}

func (w *walker) block(pos token.Pos, what string) {
	w.sum().blocks = append(w.sum().blocks, blockSite{
		pos: pos, what: what, held: w.state.clone(),
	})
}

func typeOf(pkg *Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// intrinsicBlock classifies method/function calls whose bodies we cannot
// see (stdlib) but which are known to block: time.Sleep, WaitGroup.Wait,
// network connection I/O, and the io helpers that drive it.
func intrinsicBlock(pkg *Package, sel *ast.SelectorExpr) string {
	name := sel.Sel.Name
	if obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil {
		switch obj.Pkg().Path() {
		case "time":
			if name == "Sleep" {
				return "time.Sleep"
			}
		case "io":
			switch name {
			case "Copy", "CopyN", "ReadAll", "ReadFull", "WriteString":
				return "io." + name
			}
		}
	}
	recvT := typeOf(pkg, sel.X)
	if recvT == nil {
		return ""
	}
	if _, ok := isNamed(recvT, "sync", "WaitGroup"); ok && name == "Wait" {
		return "sync.WaitGroup.Wait"
	}
	if isNetConnType(recvT) {
		switch name {
		case "Read", "Write", "ReadFrom", "WriteTo",
			"ReadFromUDP", "WriteToUDP", "ReadFromIP", "WriteToIP",
			"ReadMsgUDP", "WriteMsgUDP", "Accept", "AcceptTCP":
			return "net I/O (" + name + ")"
		}
	}
	return ""
}

// isNetConnType reports whether t is a net connection or listener: one
// of the concrete net.*Conn types, or any interface/named type declared
// in package net (net.Conn, net.Listener, net.PacketConn, ...).
func isNetConnType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "net"
}

// mayAcquire computes, per function, the mutex classes a call to it may
// transitively acquire on the caller's goroutine, with a representative
// acquisition site and callee chain for diagnostics.
func (p *Program) mayAcquire() map[*FuncNode]map[lockKey]reached[token.Pos] {
	if p.mayAcquireMemo == nil {
		p.mayAcquireMemo = propagate(p, func(n *FuncNode) map[lockKey]token.Pos { return n.Sum.acquires })
	}
	return p.mayAcquireMemo
}

// mayBlock computes, per function, whether calling it may block the
// caller's goroutine: the first blocking operation it reaches, with the
// callee chain for diagnostics.
func (p *Program) mayBlock() map[*FuncNode]*reached[blockSite] {
	if p.mayBlockMemo == nil {
		p.mayBlockMemo = reaches(p, func(n *FuncNode) (blockSite, bool) {
			if len(n.Sum.blocks) == 0 {
				return blockSite{}, false
			}
			return n.Sum.blocks[0], true
		})
	}
	return p.mayBlockMemo
}

// shortPos renders a position as "file.go:line" for diagnostic messages
// that must stay stable across checkouts (no absolute paths).
func (p *Program) shortPos(pos token.Pos) string {
	position := p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", shortBase(position.Filename), position.Line)
}

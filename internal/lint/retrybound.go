// Checker retrybound: a loop that retries failed I/O must be bounded.
// An accept or reconnect loop that retries on error without a bound
// either hot-spins (temporary error, no backoff) or retries forever
// (peer gone, no deadline), and both failure modes took down real
// monitors — the paper's collector must survive switch flaps without
// melting a core.
//
// A loop is flagged when all three hold:
//
//   - it attempts I/O: a net dial/listen/accept/read/write or io helper,
//     directly or through any resolvable call chain (whole-program);
//   - it retries: the error result of an I/O attempt is guarded by an if
//     whose taken branch stays in the loop (continue or fall-through), or
//     the attempt's error is discarded inside a condition-less loop;
//   - it has no bound. A bound is any of: a context check (ctx.Err(),
//     a <-ctx.Done()/time.After select case), a wall-clock check
//     (time.Now() compared against a deadline), an attempt counter (an
//     integer comparison that exits the loop, or an integer loop
//     condition), or a call to a bound-providing helper — a loaded
//     function that itself observes a context or deadline, like
//     netutil.(*Backoff).Sleep.
//
// The bound-provider rule is what lets the repo's accept loops write
// `if netutil.IsTemporary(err) && bo.Sleep(ctx) { continue }` and lint
// clean: Sleep returns false once ctx dies, so the retry is conditioned
// on a live context.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RetryBound enforces bounded retry loops around I/O.
var RetryBound = &Analyzer{
	Name:   "retrybound",
	Doc:    "loops retrying failed I/O must be bounded: an attempt counter, a deadline/context check, or a capped backoff",
	Global: true,
	Run:    runRetryBound,
}

func runRetryBound(pass *Pass) {
	prog := pass.Prog
	// The functions whose calls may attempt I/O (spawns cut it: a
	// goroutine retries on its own stack), and the bound providers:
	// functions whose bodies observe a context or deadline — ctx.Err(), a
	// ctx.Done()/time.After select case, or a time.Now() comparison.
	// Calling a provider inside a retry loop conditions the retry on a
	// live context.
	attempts := reachesNode(prog, func(pkg *Package, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		return ok && ioIntrinsic(pkg, call) != ""
	})
	providers := reachesNode(prog, isCtxOrClockCheck)
	for _, n := range prog.nodes {
		body := n.body()
		if body == nil {
			continue
		}
		rb := &rbScan{pass: pass, pkg: n.Pkg, node: n, attempts: attempts, providers: providers}
		var walk func(node ast.Node)
		walk = func(node ast.Node) {
			if _, ok := node.(*ast.FuncLit); ok {
				return // literals are their own nodes
			}
			if loop, ok := node.(*ast.ForStmt); ok {
				rb.checkLoop(loop)
			}
			walkChildren(node, walk)
		}
		for _, s := range body.List {
			walk(s)
		}
	}
}

// ioIntrinsic reports whether one call is a direct I/O attempt: a net
// package dial/listen, a net-type accept/dial/read/write method, or an
// io helper driving a reader/writer.
func ioIntrinsic(pkg *Package, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	if obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil {
		switch obj.Pkg().Path() {
		case "net":
			switch name {
			case "Dial", "DialTimeout", "DialUDP", "DialTCP", "DialIP",
				"Listen", "ListenTCP", "ListenUDP", "ListenPacket", "ListenIP":
				return "net." + name
			}
		case "io":
			switch name {
			case "Copy", "CopyN", "ReadAll", "ReadFull", "WriteString":
				return "io." + name
			}
		}
	}
	recvT := typeOf(pkg, sel.X)
	if recvT == nil || !isNetConnType(recvT) {
		return ""
	}
	switch name {
	case "Accept", "AcceptTCP", "AcceptUDP", "Dial", "DialContext":
		return name
	}
	if dlIOMethod(name) != 0 {
		return name
	}
	return ""
}

// reachesNode seeds every function whose body (literals included)
// contains a node matching match, and propagates that to its callers.
func reachesNode(prog *Program, match func(*Package, ast.Node) bool) map[*FuncNode]*reached[struct{}] {
	return reaches(prog, func(n *FuncNode) (struct{}, bool) {
		found := false
		ast.Inspect(n.body(), func(node ast.Node) bool {
			found = found || match(n.Pkg, node)
			return !found
		})
		return struct{}{}, found
	})
}

// isCtxOrClockCheck matches one node that observes cancellation or the
// clock: ctx.Err(), <-ctx.Done(), a select with a cancellation-shaped
// case, or a time.Now()/time.Since comparison.
func isCtxOrClockCheck(pkg *Package, node ast.Node) bool {
	switch node := node.(type) {
	case *ast.SelectStmt:
		return selectHasEscapeInfo(pkg.Info, node)
	case *ast.CallExpr:
		sel, ok := ast.Unparen(node.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		switch sel.Sel.Name {
		case "Err", "Done":
			return isContextType(typeOf(pkg, sel.X))
		case "After", "Before":
			// t.After(deadline) on a time.Time — a wall-clock bound.
			_, isTime := isNamed(typeOf(pkg, sel.X), "time", "Time")
			return isTime
		}
	}
	return false
}

// rbScan checks the for-loops of one function body.
type rbScan struct {
	pass      *Pass
	pkg       *Package
	node      *FuncNode
	attempts  map[*FuncNode]*reached[struct{}]
	providers map[*FuncNode]*reached[struct{}]
}

// checkLoop applies the three-part test to one for-loop. The walk over
// the body excludes nested for/range loops (checked on their own) and
// function literals (their own analysis roots).
func (rb *rbScan) checkLoop(loop *ast.ForStmt) {
	var attempt string // first I/O attempt found, for the message
	ioErrs := map[*types.Var]bool{}
	retries := false
	bounded := false

	if loop.Cond != nil && (rb.condBounds(loop.Cond) || hasIntCompare(rb.pkg, loop.Cond)) {
		bounded = true
	}

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ForStmt, *ast.RangeStmt:
			return
		case *ast.SelectStmt:
			if selectHasEscapeInfo(rb.pkg.Info, n) {
				bounded = true
			}
		case *ast.AssignStmt:
			// x, err := <attempt>: remember which error objects carry an
			// I/O attempt's outcome. A direct intrinsic attempt whose error
			// is dropped in a condition-less loop is an unconditional
			// retry; a transitive attempt with a dropped error handled its
			// failures inside the callee, so only a guarded error counts.
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					if what := rb.attemptCall(call); what != "" {
						if attempt == "" {
							attempt = what
						}
						tracked := false
						for _, lhs := range n.Lhs {
							if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
								if obj, ok := rb.pkg.Info.Defs[id].(*types.Var); ok && isErrorType(obj.Type()) {
									ioErrs[obj] = true
									tracked = true
								} else if obj, ok := rb.pkg.Info.Uses[id].(*types.Var); ok && isErrorType(obj.Type()) {
									ioErrs[obj] = true
									tracked = true
								}
							}
						}
						if !tracked && loop.Cond == nil && ioIntrinsic(rb.pkg, call) != "" {
							retries = true
						}
					}
				}
			}
		case *ast.ExprStmt:
			// A bare statement-position intrinsic attempt discards both the
			// result and the error: in a condition-less loop that is a
			// hot-spin retry. Transitive calls are excluded — the callee
			// owns its error handling (a heartbeat loop calling flush() is
			// periodic work, not a retry).
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				if what := ioIntrinsic(rb.pkg, call); what != "" {
					if attempt == "" {
						attempt = what
					}
					if loop.Cond == nil {
						retries = true
					}
				}
			}
		case *ast.IfStmt:
			if rb.ifIsBound(n) {
				bounded = true
			}
			if rb.guardsIOErr(n, ioErrs) && !branchLeavesLoop(n.Body) {
				retries = true
			}
		case *ast.CallExpr:
			if rb.isBoundCall(n) {
				bounded = true
			}
		}
		walkChildren(n, walk)
	}
	for _, s := range loop.Body.List {
		walk(s)
	}

	if attempt == "" || !retries || bounded {
		return
	}
	if rb.backoffIsCapped(loop) {
		return
	}
	rb.pass.Reportf(loop.For,
		"loop retries %s without a bound: add an attempt counter, a deadline/context check, or a capped backoff",
		attempt)
}

// attemptCall names the I/O attempt a call makes, directly or through a
// resolvable callee, or "".
func (rb *rbScan) attemptCall(call *ast.CallExpr) string {
	if what := ioIntrinsic(rb.pkg, call); what != "" {
		return what
	}
	for _, callee := range rb.pass.Prog.resolveCall(rb.pkg, call) {
		if rb.attempts[callee] != nil {
			return callee.Name
		}
	}
	return ""
}

// isBoundCall reports whether the call observes a context or deadline:
// a direct ctx/clock check or a call to a bound-providing function.
func (rb *rbScan) isBoundCall(call *ast.CallExpr) bool {
	if isCtxOrClockCheck(rb.pkg, call) {
		return true
	}
	for _, callee := range rb.pass.Prog.resolveCall(rb.pkg, call) {
		if rb.providers[callee] != nil {
			return true
		}
	}
	return false
}

// ifIsBound reports whether an if statement is a counter exit: an
// integer comparison whose taken branch leaves the loop.
func (rb *rbScan) ifIsBound(n *ast.IfStmt) bool {
	return hasIntCompare(rb.pkg, n.Cond) && branchLeavesLoop(n.Body)
}

// condBounds reports whether a loop condition observes a bound provider
// (e.g. `for bo.Sleep(ctx)`).
func (rb *rbScan) condBounds(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && rb.isBoundCall(call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// guardsIOErr reports whether the if condition mentions an error object
// produced by an I/O attempt in this loop.
func (rb *rbScan) guardsIOErr(n *ast.IfStmt, ioErrs map[*types.Var]bool) bool {
	if len(ioErrs) == 0 {
		return false
	}
	found := false
	ast.Inspect(n.Cond, func(c ast.Node) bool {
		if found {
			return false
		}
		if id, ok := c.(*ast.Ident); ok {
			if obj, ok := rb.pkg.Info.Uses[id].(*types.Var); ok && ioErrs[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// branchLeavesLoop reports whether the branch body always transfers
// control out of the enclosing loop: its last statement is a return, a
// goto, or a break (continue stays in the loop).
func branchLeavesLoop(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch s := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.BREAK || s.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return branchLeavesLoop(s)
	}
	return false
}

// hasIntCompare reports whether the expression contains an ordered
// comparison between integer-typed operands — the shape of an attempt
// counter check.
func hasIntCompare(pkg *Package, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
		default:
			return true
		}
		if isIntType(typeOf(pkg, be.X)) && isIntType(typeOf(pkg, be.Y)) {
			found = true
			return false
		}
		return true
	})
	return found
}

func isIntType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// backoffIsCapped recognizes the inline capped-backoff idiom: the loop
// sleeps a variable duration that grows (d *= k or d += k) and is capped
// (an if comparing d that reassigns it, or d = min(...)). Growth without
// a cap — or a constant sleep — is not a bound.
func (rb *rbScan) backoffIsCapped(loop *ast.ForStmt) bool {
	// Find the duration variable the loop sleeps on.
	var sleepVar *types.Var
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if sleepVar != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Sleep" {
			return true
		}
		obj, ok := rb.pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if v, ok := rb.pkg.Info.Uses[id].(*types.Var); ok {
				sleepVar = v
			}
		}
		return true
	})
	if sleepVar == nil {
		return false
	}
	grows, capped := false, false
	scan := func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj, ok := rb.pkg.Info.Uses[id].(*types.Var)
			if !ok || obj != sleepVar {
				continue
			}
			switch as.Tok {
			case token.MUL_ASSIGN, token.ADD_ASSIGN, token.SHL_ASSIGN:
				grows = true
			case token.ASSIGN:
				if i < len(as.Rhs) {
					if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok {
						if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fid.Name == "min" {
							if _, isBuiltin := rb.pkg.Info.Uses[fid].(*types.Builtin); isBuiltin {
								capped = true
								grows = true // min(d*2, max) both grows and caps
							}
						}
					}
					if be, ok := ast.Unparen(as.Rhs[i]).(*ast.BinaryExpr); ok {
						if be.Op == token.MUL || be.Op == token.ADD || be.Op == token.SHL {
							grows = true
						}
					}
				}
			}
		}
		return true
	}
	// A cap: an if comparing the sleep variable whose body reassigns it.
	capScan := func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if !exprMentionsVar(rb.pkg, ifs.Cond, sleepVar) {
			return true
		}
		ast.Inspect(ifs.Body, func(b ast.Node) bool {
			if as, ok := b.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if obj, ok := rb.pkg.Info.Uses[id].(*types.Var); ok && obj == sleepVar {
							capped = true
						}
					}
				}
			}
			return true
		})
		return true
	}
	ast.Inspect(loop.Body, scan)
	ast.Inspect(loop.Body, capScan)
	return grows && capped
}

func exprMentionsVar(pkg *Package, e ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj, ok := pkg.Info.Uses[id].(*types.Var); ok && obj == v {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

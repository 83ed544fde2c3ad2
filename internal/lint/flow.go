// The shared flow engine: one forward statement walker that the
// flow-sensitive checkers (lockset, which feeds lockorder and
// lockedblock; deadline; chanflow; wiretaint) instantiate with their own
// path state, and one call-graph fixpoint driver that lifts per-function
// facts to their callers.
//
// The walker owns the control structure — statement recursion, which
// branches a statement has, which of them fall through, and how their
// exits merge — so a checker supplies only its state's clone and join
// and the leaf hooks that transform it. The join policy is the state's:
//
//	lockset    union ("may hold"); loop bodies merge back
//	deadline   intersection ("armed on every path")
//	chanflow   every branch exit is dropped; state after = state before
//	wiretaint  flow-insensitive: one shared state, no clones
//
// A branch that always leaves (terminates) never reaches the join; a
// statement that may run no branch at all joins its own entry state.

package lint

import (
	"go/ast"
)

// flowState is the path state a checker threads through a body.
type flowState[S any] interface {
	// clone copies the state for one branch.
	clone() S
	// join merges the exits of a branching statement into the state
	// after it; the receiver is the state before. outs holds every exit
	// that falls through, plus the receiver itself when the statement
	// may run no branch: an if without else, a switch without default,
	// a loop body that runs zero times (a select always runs a clause).
	// Empty outs means every branch left.
	join(outs []S) S
}

// flowWalker walks one function body forward in evaluation order,
// threading state through branches. Function literals are not entered:
// they are analysis roots of their own.
type flowWalker[S flowState[S]] struct {
	state S
	loops int // loop bodies enclosing the current statement

	// The checker's hooks; nil ones are skipped.
	leaf  func(ast.Stmt) bool // a simple statement; false: evaluate its operands through expr
	expr  func(ast.Expr)      // one expression (possibly nil) evaluated on the current path
	enter func(ast.Stmt)      // an if/for/range/switch/select, after its header, before any branch
	comms bool                // run each select case's communication at the head of its branch
}

func (f *flowWalker[S]) stmts(list []ast.Stmt) {
	for _, s := range list {
		f.stmt(s)
	}
}

func (f *flowWalker[S]) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		f.stmts(s.List)
	case *ast.LabeledStmt:
		f.stmt(s.Stmt)
	case *ast.IfStmt:
		f.stmt(s.Init)
		f.eval(s.Cond)
		f.entered(s)
		outs := f.branch(nil, nil, s.Body.List)
		if s.Else != nil {
			outs = f.branch(outs, nil, []ast.Stmt{s.Else})
		} else {
			outs = append(outs, f.state)
		}
		f.state = f.state.join(outs)
	case *ast.ForStmt:
		f.stmt(s.Init)
		f.eval(s.Cond)
		f.entered(s)
		body := s.Body.List
		if s.Post != nil {
			body = append(body[:len(body):len(body)], s.Post)
		}
		f.loop(body)
	case *ast.RangeStmt:
		f.eval(s.X)
		f.entered(s)
		f.loop(s.Body.List)
	case *ast.SwitchStmt:
		f.stmt(s.Init)
		f.eval(s.Tag)
		f.entered(s)
		f.clauses(s.Body, true)
	case *ast.TypeSwitchStmt:
		f.stmt(s.Init)
		f.stmt(s.Assign)
		f.entered(s)
		f.clauses(s.Body, false)
	case *ast.SelectStmt:
		f.entered(s)
		f.clauses(s.Body, false)
	default:
		if f.leaf == nil || !f.leaf(s) {
			f.operands(s)
		}
	}
}

func (f *flowWalker[S]) eval(e ast.Expr) {
	if f.expr != nil {
		f.expr(e)
	}
}

func (f *flowWalker[S]) entered(s ast.Stmt) {
	if f.enter != nil {
		f.enter(s)
	}
}

// operands evaluates a simple statement's expressions in order: the
// default for a statement the leaf hook does not claim.
func (f *flowWalker[S]) operands(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		f.eval(s.X)
	case *ast.SendStmt:
		f.eval(s.Chan)
		f.eval(s.Value)
	case *ast.IncDecStmt:
		f.eval(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			f.eval(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			f.eval(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						f.eval(e)
					}
				}
			}
		}
	case *ast.GoStmt:
		f.eval(s.Call)
	case *ast.DeferStmt:
		f.eval(s.Call)
	}
}

// branch runs comm (when non-nil) and stmts on a clone of the state and
// appends the exit to outs, unless stmts always leave.
func (f *flowWalker[S]) branch(outs []S, comm ast.Stmt, stmts []ast.Stmt) []S {
	pre := f.state
	f.state = pre.clone()
	f.stmt(comm)
	f.stmts(stmts)
	out := f.state
	f.state = pre
	if terminates(stmts) {
		return outs
	}
	return append(outs, out)
}

// loop runs a loop body (with a for loop's post statement) as a branch
// that may run zero times.
func (f *flowWalker[S]) loop(body []ast.Stmt) {
	f.loops++
	outs := f.branch(nil, nil, body)
	f.loops--
	f.state = f.state.join(append(outs, f.state))
}

// clauses runs each case of a switch, type switch or select as a
// branch. An expression switch (evalCases) evaluates a clause's case
// list before its body; a switch with no default may run no clause.
func (f *flowWalker[S]) clauses(body *ast.BlockStmt, evalCases bool) {
	var outs []S
	mayRunNone := true
	for _, clause := range body.List {
		switch cc := clause.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				mayRunNone = false
			}
			if evalCases {
				for _, e := range cc.List {
					f.eval(e)
				}
			}
			outs = f.branch(outs, nil, cc.Body)
		case *ast.CommClause:
			mayRunNone = false
			var comm ast.Stmt
			if f.comms {
				comm = cc.Comm
			}
			outs = f.branch(outs, comm, cc.Body)
		}
	}
	if mayRunNone {
		outs = append(outs, f.state)
	}
	f.state = f.state.join(outs)
}

// terminates reports whether a statement list always transfers control
// out (return, branch, panic) as its last statement.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch s := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s.List)
	}
	return false
}

// selectDefault returns a select's default clause, or nil.
func selectDefault(s *ast.SelectStmt) *ast.CommClause {
	for _, clause := range s.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return cc
		}
	}
	return nil
}

// walkChildren applies f to each direct child node of n.
func walkChildren(n ast.Node, f func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			f(c)
		}
		return false
	})
}

// noState is the state of a flow-insensitive walk: every branch runs on,
// and keeps, the one shared state.
type noState struct{}

func (noState) clone() noState         { return noState{} }
func (noState) join([]noState) noState { return noState{} }

// ---- call-graph fixpoints ------------------------------------------------

// fixpoint repeats round until it reports no change — at most limit
// rounds when limit > 0, a backstop for summaries that need not settle.
func fixpoint(limit int, round func() bool) {
	for i := 0; limit <= 0 || i < limit; i++ {
		if !round() {
			return
		}
	}
}

// reached is a fact that holds in a function: at is the seed, via the
// callee chain ("a → b") from the function down to where at was seeded,
// "" when that is the function itself.
type reached[V any] struct {
	at  V
	via string
}

// viaChain prefixes a callee's name to the chain below it.
func viaChain(callee, via string) string {
	if via == "" {
		return callee
	}
	return callee + " → " + via
}

// propagate computes, per function, the facts a call to it may reach on
// the caller's goroutine: n holds fact k if seed gives n k, or if a
// callee of one of n's calls holds k — except across `go`, since a
// spawned goroutine runs on its own stack. The first callee, in call
// order, to supply k names the chain.
func propagate[K comparable, V any](p *Program, seed func(*FuncNode) map[K]V) map[*FuncNode]map[K]reached[V] {
	out := make(map[*FuncNode]map[K]reached[V], len(p.nodes))
	for _, n := range p.nodes {
		facts := make(map[K]reached[V])
		for k, v := range seed(n) {
			facts[k] = reached[V]{at: v}
		}
		out[n] = facts
	}
	fixpoint(0, func() bool {
		changed := false
		for _, n := range p.nodes {
			for _, cs := range n.Sum.calls {
				if cs.spawned {
					continue
				}
				for _, callee := range cs.callees {
					for k, r := range out[callee] {
						if _, ok := out[n][k]; !ok {
							out[n][k] = reached[V]{at: r.at, via: viaChain(callee.Name, r.via)}
							changed = true
						}
					}
				}
			}
		}
		return changed
	})
	return out
}

// reaches is propagate for one fact per function: the result maps every
// function that holds it (seeded, or through a callee) to the fact.
func reaches[V any](p *Program, seed func(*FuncNode) (V, bool)) map[*FuncNode]*reached[V] {
	sets := propagate(p, func(n *FuncNode) map[struct{}]V {
		if v, ok := seed(n); ok {
			return map[struct{}]V{{}: v}
		}
		return nil
	})
	out := make(map[*FuncNode]*reached[V])
	for n, set := range sets {
		if r, ok := set[struct{}{}]; ok {
			out[n] = &r
		}
	}
	return out
}

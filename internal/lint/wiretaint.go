// Checker wiretaint: interprocedural taint analysis of untrusted wire
// input. VeriDP's trust boundary is the wire — every tag report, every
// southbound frame, every capture file and network description is parsed
// from bytes an adversarial or faulty switch controls — and the class of
// bug that actually crashes network servers in production is a tainted
// length or offset reaching an allocation, a slice expression, or a loop
// bound. The checker tracks wire-derived values flow-sensitively through
// each function body and interprocedurally across the PR-2 call graph.
//
// Sources (taint enters the program):
//   - []byte / string parameters of decode-shaped functions (names
//     starting with Unmarshal/Decode/Parse, any case),
//   - byte buffers filled by reads from the network or an io.Reader
//     (net.Conn.Read, ReadFromUDP, io.ReadFull, io.ReadAll, ...),
//   - values populated by encoding/json Decode/Unmarshal.
//
// Sinks (taint must not reach them unsanitized):
//   - make([]T, n) / make(..., n, c) with a tainted size or capacity,
//   - an index expression with a tainted index,
//   - a slice expression with a tainted bound,
//   - a for-loop condition bounded by a tainted value,
//   - indexing or reslicing a wire-derived slice that was never
//     length-checked (the truncated-frame panic class),
//   - passing a tainted value to a helper whose parameter reaches one of
//     the sinks above (the interprocedural case).
//
// Sanitizers (taint is cleared):
//   - an ordering comparison (< <= > >=) of the tainted value against an
//     untainted bound — len(b), a named length constant, a literal —
//     dominating the use (the walk clears the value at the comparison),
//   - any comparison mentioning len(b) marks the slice b length-checked,
//     which satisfies the unchecked-access sink (values read out of b
//     remain tainted: len(b) >= 4 bounds offsets into b, not the bytes),
//   - ranging over a slice marks it length-checked (range is bounded).
//
// Taint is a label {wire, params}: the wire bit is concrete taint, the
// param bitmask is symbolic ("depends on parameter i"), which is what the
// interprocedural fixpoint propagates — a function summary records which
// results carry which parameter bits and which parameters reach sinks, so
// a caller holding concrete taint reports at its own call site.

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WireTaint reports wire-derived lengths and offsets reaching dangerous
// operations without a dominating bounds check.
var WireTaint = &Analyzer{
	Name:   "wiretaint",
	Doc:    "wire-derived lengths/offsets must be bounds-checked before reaching allocations, slice expressions, or loop bounds",
	Global: true,
	Run:    runWireTaint,
}

// taintLabel is the abstract value of one expression: concrete wire taint
// and/or a dependency on the enclosing function's parameters.
type taintLabel struct {
	wire   bool
	params uint64 // bit i set: derived from parameter i (i < 64)
}

func (l taintLabel) clean() bool { return !l.wire && l.params == 0 }

func (l taintLabel) union(o taintLabel) taintLabel {
	return taintLabel{wire: l.wire || o.wire, params: l.params | o.params}
}

// sinkKind distinguishes how a parameter reaches a sink, because the
// caller-side guard differs: a value sink fires on any tainted argument,
// an access sink is satisfied by passing a length-bounded slice.
type sinkKind int

const (
	sinkValue  sinkKind = iota // used as size/index/offset/bound
	sinkAccess                 // indexed/resliced without a length check
)

// paramSink records that a parameter flows to a sink inside the callee.
type paramSink struct {
	kind sinkKind
	pos  token.Pos // sink site in the callee
	what string    // human description of the sink
	via  string    // callee chain for transitive sinks
}

// taintSummary is the per-function interprocedural surface.
type taintSummary struct {
	// results carries the label of the function's return values assuming
	// parameter i has label {params: 1<<i}: the wire bit is set when the
	// body taints its results from its own sources.
	results taintLabel
	// sinks[i] is set when parameter i reaches a sink unsanitized.
	sinks map[int]paramSink
	// sanitized bit i: the body bounds-compares parameter i against a
	// clean value (a validator — it panics or errors on the failing
	// branch), so callers may treat the argument as checked after the
	// call. This is the interprocedural sanitizer: validatePort-style
	// helpers dominate their callers' subsequent uses.
	sanitized uint64
}

// wtState is the whole-analysis state shared across the fixpoint.
type wtState struct {
	prog      *Program
	summaries map[*FuncNode]*taintSummary
	pass      *Pass
	reported  map[token.Pos]bool
}

func runWireTaint(pass *Pass) {
	st := &wtState{
		prog:      pass.Prog,
		summaries: make(map[*FuncNode]*taintSummary, len(pass.Prog.nodes)),
		reported:  make(map[token.Pos]bool),
	}
	for _, n := range st.prog.nodes {
		st.summaries[n] = &taintSummary{sinks: make(map[int]paramSink)}
	}
	// Fixpoint the summaries. Result labels and sanitized masks only
	// grow; sink sets are recomputed each round because a sanitized-param
	// fact discovered late retracts sinks recorded early (t.check(f)
	// clearing f must erase the t.nodes[f] sink). The monotone parts
	// stabilize first, then the sink sets settle; the iteration cap is a
	// backstop against pathological recursion.
	fixpoint(len(st.prog.nodes)+8, func() bool {
		changed := false
		for _, n := range st.prog.nodes {
			if st.analyze(n, nil) {
				changed = true
			}
		}
		return changed
	})
	// Reporting pass: same walk, now emitting diagnostics.
	st.pass = pass
	for _, n := range st.prog.nodes {
		st.analyze(n, pass)
	}
}

// analyze walks one function body and returns whether its summary grew.
// With pass == nil it only computes summaries; otherwise it reports.
func (st *wtState) analyze(node *FuncNode, pass *Pass) bool {
	w := &taintWalker{
		st:      st,
		node:    node,
		pkg:     node.Pkg,
		pass:    pass,
		labels:  make(map[*types.Var]taintLabel),
		checked: make(map[*types.Var]bool),
	}
	w.flowWalker = flowWalker[noState]{leaf: w.leafStmt, expr: w.walkExpr, enter: w.enterStmt, comms: true}
	w.seedParams()
	// Two passes over the body so loop-carried taint (a value tainted
	// late in an iteration, used early in the next) converges.
	w.stmt(node.body())
	if pass == nil {
		w.stmt(node.body())
	}
	sum := st.summaries[node]
	grew := false
	if w.retLabel.wire && !sum.results.wire {
		sum.results.wire = true
		grew = true
	}
	if w.retLabel.params&^sum.results.params != 0 {
		sum.results.params |= w.retLabel.params
		grew = true
	}
	if w.sanitized&^sum.sanitized != 0 {
		sum.sanitized |= w.sanitized
		grew = true
	}
	// Sinks are replaced wholesale: this walk saw the freshest sanitized
	// facts, so both additions and retractions count as change.
	if len(w.paramSinks) != len(sum.sinks) {
		grew = true
	} else {
		for i := range w.paramSinks {
			if _, ok := sum.sinks[i]; !ok {
				grew = true
				break
			}
		}
	}
	if w.paramSinks == nil {
		sum.sinks = map[int]paramSink{}
	} else {
		sum.sinks = w.paramSinks
	}
	return grew
}

// taintWalker threads taint state through one function body,
// flow-insensitively: branches share the one set of labels.
type taintWalker struct {
	flowWalker[noState]
	st   *wtState
	node *FuncNode
	pkg  *Package
	pass *Pass // nil during summary computation

	labels  map[*types.Var]taintLabel // abstract value per local/param
	checked map[*types.Var]bool       // slice/string vars with a len() check
	params  []*types.Var              // declared parameter objects, in order

	retLabel   taintLabel        // union of labels returned anywhere
	paramSinks map[int]paramSink // params reaching sinks in this body
	sanitized  uint64            // params this body bounds-compares
}

// decodeShaped reports whether a function name marks its byte/string
// parameters as wire input.
func decodeShaped(name string) bool {
	lower := strings.ToLower(name)
	for _, prefix := range []string{"unmarshal", "decode", "parse"} {
		if strings.HasPrefix(lower, prefix) {
			return true
		}
	}
	return false
}

// seedParams labels each parameter: symbolic bit i always, plus the wire
// bit when the function is decode-shaped and the parameter carries bytes.
func (w *taintWalker) seedParams() {
	var ft *ast.FuncType
	name := ""
	if w.node.Decl != nil {
		ft = w.node.Decl.Type
		name = w.node.Decl.Name.Name
	} else {
		ft = w.node.Lit.Type
	}
	if ft.Params == nil {
		return
	}
	i := 0
	for _, field := range ft.Params.List {
		for _, id := range field.Names {
			obj, ok := w.pkg.Info.Defs[id].(*types.Var)
			if !ok {
				i++
				continue
			}
			w.params = append(w.params, obj)
			label := taintLabel{}
			if i < 64 {
				label.params = 1 << uint(i)
			}
			if decodeShaped(name) && isBytesOrString(obj.Type()) {
				label.wire = true
			}
			w.labels[obj] = label
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
}

func isBytesOrString(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		b, ok := u.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

// rootVar resolves an expression to the local variable that owns its
// storage ("m", "m.Body", "b[i]" all root at the base object), or nil.
func (w *taintWalker) rootVar(e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj, ok := w.pkg.Info.Uses[e].(*types.Var); ok {
			return obj
		}
		if obj, ok := w.pkg.Info.Defs[e].(*types.Var); ok {
			return obj
		}
	case *ast.SelectorExpr:
		return w.rootVar(e.X)
	case *ast.IndexExpr:
		return w.rootVar(e.X)
	case *ast.SliceExpr:
		return w.rootVar(e.X)
	case *ast.StarExpr:
		return w.rootVar(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return w.rootVar(e.X)
		}
	case *ast.CallExpr:
		// Conversions keep the operand's identity: []byte(s), T(x).
		if w.isConversion(e) && len(e.Args) == 1 {
			return w.rootVar(e.Args[0])
		}
	}
	return nil
}

func (w *taintWalker) isConversion(call *ast.CallExpr) bool {
	if tv, ok := w.pkg.Info.Types[call.Fun]; ok {
		return tv.IsType()
	}
	return false
}

// isLenOf returns the slice/string variable X when e is len(X), else nil.
func (w *taintWalker) isLenOf(e ast.Expr) *types.Var {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || (id.Name != "len" && id.Name != "cap") {
		return nil
	}
	if _, builtin := w.pkg.Info.Uses[id].(*types.Builtin); !builtin {
		return nil
	}
	return w.rootVar(call.Args[0])
}

// labelOf computes the taint label of an expression.
func (w *taintWalker) labelOf(e ast.Expr) taintLabel {
	switch e := ast.Unparen(e).(type) {
	case nil:
		return taintLabel{}
	case *ast.Ident:
		if obj, ok := w.pkg.Info.Uses[e].(*types.Var); ok {
			return w.labels[obj]
		}
		return taintLabel{}
	case *ast.BasicLit:
		return taintLabel{}
	case *ast.SelectorExpr:
		// A constant selector (pkg.Const) is clean; a field read carries
		// the owner's taint.
		if _, isConst := w.pkg.Info.Uses[e.Sel].(*types.Const); isConst {
			return taintLabel{}
		}
		if root := w.rootVar(e); root != nil {
			return w.labels[root]
		}
		return w.labelOf(e.X)
	case *ast.IndexExpr:
		return w.labelOf(e.X).union(w.labelOf(e.Index))
	case *ast.SliceExpr:
		l := w.labelOf(e.X)
		for _, b := range []ast.Expr{e.Low, e.High, e.Max} {
			if b != nil {
				l = l.union(w.labelOf(b))
			}
		}
		return l
	case *ast.StarExpr:
		return w.labelOf(e.X)
	case *ast.UnaryExpr:
		return w.labelOf(e.X)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return taintLabel{} // booleans never reach a sink
		}
		return w.labelOf(e.X).union(w.labelOf(e.Y))
	case *ast.CallExpr:
		return w.callLabel(e)
	case *ast.TypeAssertExpr:
		return w.labelOf(e.X)
	case *ast.CompositeLit:
		var l taintLabel
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			l = l.union(w.labelOf(elt))
		}
		return l
	case *ast.FuncLit:
		return taintLabel{}
	}
	// Constant-folded expressions are clean regardless of shape.
	if tv, ok := w.pkg.Info.Types[e]; ok && tv.Value != nil {
		return taintLabel{}
	}
	return taintLabel{}
}

// lengthBounded reports whether passing e as a []byte argument satisfies
// a callee's unchecked-access sink: the value's length is already pinned —
// a length-checked variable, a constant-bound reslice, or an array view.
func (w *taintWalker) lengthBounded(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		// b[lo:hi] with constant bounds has a known length.
		constBound := func(x ast.Expr) bool {
			if x == nil {
				return false
			}
			tv, ok := w.pkg.Info.Types[x]
			return ok && tv.Value != nil
		}
		if constBound(e.Low) && constBound(e.High) {
			return true
		}
		if root := w.rootVar(e.X); root != nil && w.checked[root] {
			return true
		}
	case *ast.Ident, *ast.SelectorExpr:
		if root := w.rootVar(e); root != nil && w.checked[root] {
			return true
		}
		// Arrays (and slices of arrays) have static length.
		if tv, ok := w.pkg.Info.Types[e]; ok {
			if _, isArr := tv.Type.Underlying().(*types.Array); isArr {
				return true
			}
		}
	}
	return false
}

// report emits one deduplicated diagnostic during the reporting pass.
func (w *taintWalker) report(pos token.Pos, format string, args ...interface{}) {
	if w.pass == nil || w.st.reported[pos] {
		return
	}
	w.st.reported[pos] = true
	w.pass.Reportf(pos, format, args...)
}

// hitSink handles a sink fed by label: concrete wire taint reports here;
// symbolic parameter taint records a summary entry for the callers.
func (w *taintWalker) hitSink(kind sinkKind, pos token.Pos, what string, label taintLabel) {
	if label.wire {
		w.report(pos, "%s derived from untrusted wire input without a dominating bounds check", what)
		return
	}
	if label.params == 0 {
		return
	}
	if w.paramSinks == nil {
		w.paramSinks = make(map[int]paramSink)
	}
	for i := range w.params {
		if i < 64 && label.params&(1<<uint(i)) != 0 {
			if _, ok := w.paramSinks[i]; !ok {
				w.paramSinks[i] = paramSink{kind: kind, pos: pos, what: what}
			}
		}
	}
}

// sanitizeCond applies the sanitizer model to one condition expression:
// ordering comparisons clear the tainted side when the other side is
// clean, and any mention of len(X) marks X length-checked.
func (w *taintWalker) sanitizeCond(cond ast.Expr) {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND, token.LOR:
			w.sanitizeCond(e.X)
			w.sanitizeCond(e.Y)
			return
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			w.markLenChecked(e.X)
			w.markLenChecked(e.Y)
			lx, ly := w.labelOf(e.X), w.labelOf(e.Y)
			if !lx.clean() && ly.clean() {
				w.clearRoots(e.X)
			}
			if !ly.clean() && lx.clean() {
				w.clearRoots(e.Y)
			}
		case token.EQL, token.NEQ:
			// len(b) == 0 style guards bound the slice but not values.
			w.markLenChecked(e.X)
			w.markLenChecked(e.Y)
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			w.sanitizeCond(e.X)
		}
	}
}

// markLenChecked scans an expression tree for len(X)/cap(X) and marks X.
func (w *taintWalker) markLenChecked(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if v := w.isLenOf(call); v != nil {
				w.checked[v] = true
			}
		}
		return true
	})
}

// clearRoots removes concrete and symbolic taint from every variable
// mentioned in a sanitizing comparison side. Clearing a parameter is
// recorded in the sanitized mask so callers learn this function is a
// validator for that argument.
func (w *taintWalker) clearRoots(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj, ok := w.pkg.Info.Uses[id].(*types.Var); ok {
			if _, tracked := w.labels[obj]; tracked {
				w.labels[obj] = taintLabel{}
				for i, p := range w.params {
					if p == obj && i < 64 {
						w.sanitized |= 1 << uint(i)
					}
				}
			}
		}
		return true
	})
}

// taint merges a label into the variable rooted at e (field and element
// writes taint the owner; a whole-variable assignment replaces instead —
// the callers pick which).
func (w *taintWalker) taintRoot(e ast.Expr, label taintLabel) {
	if root := w.rootVar(e); root != nil {
		w.labels[root] = w.labels[root].union(label)
	}
}

func (w *taintWalker) leafStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.walkAssign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					w.walkExpr(v)
				}
				for i, id := range vs.Names {
					obj, ok := w.pkg.Info.Defs[id].(*types.Var)
					if !ok {
						continue
					}
					if len(vs.Values) == len(vs.Names) {
						w.labels[obj] = w.labelOf(vs.Values[i])
					} else if len(vs.Values) == 1 {
						w.labels[obj] = w.labelOf(vs.Values[0])
					} else {
						w.labels[obj] = taintLabel{}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.walkExpr(r)
			w.retLabel = w.retLabel.union(w.labelOf(r))
		}
	default:
		return false
	}
	return true
}

// enterStmt applies the header rules: an if condition sanitizes, a loop
// condition is a loop-bound sink, and ranging bounds the ranged value.
func (w *taintWalker) enterStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.IfStmt:
		w.sanitizeCond(s.Cond)
	case *ast.ForStmt:
		w.checkLoopBound(s.Cond)
	case *ast.RangeStmt:
		// Ranging is intrinsically bounded; the ranged slice needs no
		// further length check, and the iteration vars are clean.
		if root := w.rootVar(s.X); root != nil {
			w.checked[root] = true
		}
		for _, v := range []ast.Expr{s.Key, s.Value} {
			if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
				if obj, ok := w.pkg.Info.Defs[id].(*types.Var); ok {
					w.labels[obj] = taintLabel{}
				}
			}
		}
		// The element of a wire-derived slice is still wire data.
		if s.Value != nil {
			if id, ok := s.Value.(*ast.Ident); ok && id.Name != "_" {
				if obj, ok := w.pkg.Info.Defs[id].(*types.Var); ok {
					w.labels[obj] = w.labelOf(s.X)
				}
			}
		}
	}
}

// checkLoopBound fires the loop-bound sink on `i < n` with tainted n.
func (w *taintWalker) checkLoopBound(cond ast.Expr) {
	e, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return
	}
	switch e.Op {
	case token.LAND, token.LOR:
		w.checkLoopBound(e.X)
		w.checkLoopBound(e.Y)
		return
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
	default:
		return
	}
	// A bound of len(X) also counts as a length check for X.
	w.markLenChecked(e.X)
	w.markLenChecked(e.Y)
	sides := [2]ast.Expr{e.X, e.Y}
	for i, side := range sides {
		l := w.labelOf(side)
		if l.clean() {
			continue
		}
		// Comparing the tainted value against a constant is itself the
		// bound: `for sum > 0xffff { fold }` is the checksum idiom, not an
		// attacker-stretched loop. Consistent with if-cond sanitizing.
		other := sides[1-i]
		if tv, ok := w.pkg.Info.Types[other]; ok && tv.Value != nil {
			w.clearRoots(side)
			continue
		}
		w.hitSink(sinkValue, e.Pos(), fmt.Sprintf("loop bound %q", exprText(side)), l)
	}
}

func (w *taintWalker) walkAssign(s *ast.AssignStmt) {
	for _, r := range s.Rhs {
		w.walkExpr(r)
	}
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		// Tuple assignment: every target inherits the call's label.
		label := w.labelOf(s.Rhs[0])
		for _, l := range s.Lhs {
			w.assign(l, label, s.Tok)
		}
		return
	}
	for i, l := range s.Lhs {
		if i < len(s.Rhs) {
			label := w.labelOf(s.Rhs[i])
			if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
				label = label.union(w.labelOf(l)) // x += y keeps x's taint
			}
			w.assign(l, label, s.Tok)
			// buf := make([]byte, n): the length is program-chosen (a
			// tainted n already fired the allocation sink), so even once a
			// read or element store taints the contents, offset access is
			// not the truncated-input panic class.
			if w.isMakeCall(s.Rhs[i]) {
				if root := w.rootVar(l); root != nil {
					w.checked[root] = true
				}
			}
		}
	}
	for _, l := range s.Lhs {
		w.walkIndexUse(l)
	}
}

// isMakeCall reports whether e is a call of the builtin make.
func (w *taintWalker) isMakeCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	_, builtin := w.pkg.Info.Uses[id].(*types.Builtin)
	return builtin
}

// assign stores label into the target. Whole-variable stores replace the
// label (a clean reassignment kills taint); field/element stores merge.
func (w *taintWalker) assign(target ast.Expr, label taintLabel, tok token.Token) {
	switch t := ast.Unparen(target).(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return
		}
		if obj, ok := w.pkg.Info.Defs[t].(*types.Var); ok {
			w.labels[obj] = label
			return
		}
		if obj, ok := w.pkg.Info.Uses[t].(*types.Var); ok {
			w.labels[obj] = label
			return
		}
	default:
		if !label.clean() {
			w.taintRoot(target, label)
		}
	}
}

func (w *taintWalker) walkExpr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.callLabel(e) // walks args, applies sources/sinks
	case *ast.ParenExpr:
		w.walkExpr(e.X)
	case *ast.UnaryExpr:
		w.walkExpr(e.X)
	case *ast.BinaryExpr:
		w.walkExpr(e.X)
		// Short-circuit guards dominate their right operand:
		// `len(b) >= 2 && b[1] == x` and `len(f) < 2 || use(f[1])` both
		// length-check before the access evaluates.
		if e.Op == token.LAND || e.Op == token.LOR {
			w.sanitizeCond(e.X)
		}
		w.walkExpr(e.Y)
	case *ast.StarExpr:
		w.walkExpr(e.X)
	case *ast.SelectorExpr:
		w.walkExpr(e.X)
	case *ast.IndexExpr:
		w.walkExpr(e.X)
		w.walkExpr(e.Index)
		w.walkIndexUse(e)
	case *ast.SliceExpr:
		w.walkExpr(e.X)
		for _, b := range []ast.Expr{e.Low, e.High, e.Max} {
			w.walkExpr(b)
		}
		w.walkIndexUse(e)
	case *ast.TypeAssertExpr:
		w.walkExpr(e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			w.walkExpr(elt)
		}
	case *ast.KeyValueExpr:
		w.walkExpr(e.Value)
	case *ast.FuncLit:
		// Literal bodies are separate analysis roots (registered by the
		// lockset walk); captured taint is not modeled.
	}
}

// walkIndexUse applies the index/slice sinks to one access expression.
func (w *taintWalker) walkIndexUse(e ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		// Maps index by key, not offset — no panic class there.
		if tv, ok := w.pkg.Info.Types[e.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				return
			}
		}
		if l := w.labelOf(e.Index); !l.clean() {
			w.hitSink(sinkValue, e.Pos(), fmt.Sprintf("index %q", exprText(e.Index)), l)
			return
		}
		w.checkUncheckedAccess(e, e.X)
	case *ast.SliceExpr:
		for _, b := range []ast.Expr{e.Low, e.High, e.Max} {
			if b == nil {
				continue
			}
			if l := w.labelOf(b); !l.clean() {
				w.hitSink(sinkValue, e.Pos(), fmt.Sprintf("slice bound %q", exprText(b)), l)
				return
			}
		}
		// A bare reslice b[:] or b[0:] cannot panic.
		if e.Low == nil && e.High == nil {
			return
		}
		w.checkUncheckedAccess(e, e.X)
	}
}

// checkUncheckedAccess fires the truncated-frame sink: constant-offset
// access into a wire-derived slice that was never length-checked.
func (w *taintWalker) checkUncheckedAccess(access ast.Expr, x ast.Expr) {
	label := w.labelOf(x)
	if label.clean() {
		return
	}
	// Arrays have static bounds.
	if tv, ok := w.pkg.Info.Types[x]; ok {
		t := tv.Type.Underlying()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem().Underlying()
		}
		if _, isArr := t.(*types.Array); isArr {
			return
		}
	}
	if root := w.rootVar(x); root != nil && w.checked[root] {
		return
	}
	what := fmt.Sprintf("access %q into wire-derived bytes with no length check", exprText(access))
	if label.wire {
		w.report(access.Pos(), "%s — truncated input panics here; check len first", what)
		return
	}
	w.hitSink(sinkAccess, access.Pos(), what, label)
}

// callLabel walks a call's arguments, applies source and sink rules, and
// returns the label of the call's results.
func (w *taintWalker) callLabel(call *ast.CallExpr) taintLabel {
	fun := ast.Unparen(call.Fun)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		w.walkExpr(sel.X)
	} else if fl, isLit := fun.(*ast.FuncLit); isLit {
		w.walkExpr(fl)
	}
	for _, arg := range call.Args {
		w.walkExpr(arg)
	}

	// Type conversion: the operand's label passes through.
	if w.isConversion(call) && len(call.Args) == 1 {
		return w.labelOf(call.Args[0])
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := w.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "len", "cap":
				// Ground truth about real data: the result is clean, and
				// observing len(X) anywhere marks X length-aware — the
				// unchecked-access sink targets decoders that never
				// consider length at all (nblocks := len(data)/4 then
				// data[i*4:] is the bounded murmur3 idiom, not a bug).
				if v := w.isLenOf(call); v != nil {
					w.checked[v] = true
				}
				return taintLabel{}
			case "make":
				for _, sz := range call.Args[1:] {
					if l := w.labelOf(sz); !l.clean() {
						w.hitSink(sinkValue, call.Pos(), fmt.Sprintf("allocation size %q", exprText(sz)), l)
					}
				}
				return taintLabel{}
			case "copy":
				// copy(dst, src): dst absorbs src's taint.
				if len(call.Args) == 2 {
					w.taintRoot(call.Args[0], w.labelOf(call.Args[1]))
				}
				return taintLabel{}
			case "append":
				var l taintLabel
				for _, a := range call.Args {
					l = l.union(w.labelOf(a))
				}
				return l
			default:
				return taintLabel{}
			}
		}
	}

	// Intrinsic sources: reads from the network / an io.Reader fill their
	// buffer arguments with wire bytes; json decoding fills its target.
	if label, isSource := w.applyIntrinsicSource(call, fun); isSource {
		return label
	}

	// Resolved calls: use the callee summaries.
	callees := w.st.prog.resolveCall(w.pkg, call)
	if len(callees) > 0 {
		var out taintLabel
		var sanitizedArgs uint64
		for _, callee := range callees {
			sum := w.st.summaries[callee]
			if sum == nil {
				continue
			}
			if sum.results.wire {
				out.wire = true
			}
			sanitizedArgs |= sum.sanitized
			for i, arg := range call.Args {
				argLabel := w.labelOf(arg)
				if i < 64 && sum.results.params&(1<<uint(i)) != 0 {
					out = out.union(argLabel)
				}
				ps, sinks := sum.sinks[i]
				if !sinks || argLabel.clean() {
					continue
				}
				if ps.kind == sinkAccess && w.lengthBounded(arg) {
					continue // caller already pinned the slice's length
				}
				// A decode-shaped callee taints its own parameter: the
				// in-body diagnostic already covers it; a call-site report
				// would double-count the same root cause.
				if callee.Decl != nil && decodeShaped(callee.Decl.Name.Name) {
					continue
				}
				via := viaChain(callee.Name, ps.via)
				if argLabel.wire {
					w.report(call.Pos(),
						"wire-tainted %q passed to %s, where %s (at %s) has no dominating bounds check",
						exprText(arg), via, ps.what, w.st.prog.shortPos(ps.pos))
				} else {
					// Still symbolic: lift the callee's sink to this
					// function's own parameters.
					for pi := range w.params {
						if pi < 64 && argLabel.params&(1<<uint(pi)) != 0 {
							if w.paramSinks == nil {
								w.paramSinks = make(map[int]paramSink)
							}
							if _, ok := w.paramSinks[pi]; !ok {
								w.paramSinks[pi] = paramSink{kind: ps.kind, pos: ps.pos, what: ps.what, via: via}
							}
						}
					}
				}
			}
		}
		// The callee is a validator for these arguments: it bounds-checks
		// them (panicking or erroring on the failing branch), which is
		// the dominating check for everything the caller does after.
		for i, arg := range call.Args {
			if i < 64 && sanitizedArgs&(1<<uint(i)) != 0 {
				w.clearRoots(arg)
			}
		}
		return out
	}

	// Unresolved call (stdlib, interface with no loaded impl): results
	// conservatively union the argument labels; tainted arguments also
	// leak into writable (slice/pointer) arguments.
	var out taintLabel
	for _, a := range call.Args {
		out = out.union(w.labelOf(a))
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		out = out.union(w.labelOf(sel.X))
	}
	if !out.clean() {
		for _, a := range call.Args {
			if t, ok := w.pkg.Info.Types[a]; ok {
				switch t.Type.Underlying().(type) {
				case *types.Slice, *types.Pointer:
					w.taintRoot(a, out)
				}
			}
		}
	}
	return out
}

// applyIntrinsicSource recognizes the wire-read shapes and taints the
// written-to buffer arguments. The second result reports whether the call
// IS a source; the first is the label of the call's own results — reads
// returning (n int, err error) are clean (io contracts bound n by the
// buffer length the caller chose), while ReadAll-style calls return the
// wire bytes themselves.
func (w *taintWalker) applyIntrinsicSource(call *ast.CallExpr, fun ast.Expr) (taintLabel, bool) {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return taintLabel{}, false
	}
	name := sel.Sel.Name
	taintArgs := func(args []ast.Expr) {
		for _, a := range args {
			w.taintRoot(a, taintLabel{wire: true})
		}
	}
	// Package-level io helpers: io.ReadFull(r, buf), io.ReadAll(r), ...
	if obj, ok := w.pkg.Info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil {
		switch obj.Pkg().Path() {
		case "strings", "bytes":
			// Index-family results are valid offsets into their first
			// argument by contract (or -1, which callers guard): treating
			// them as clean and the searched value as length-aware keeps
			// `s[strings.LastIndex(s, "/")+1:]` quiet.
			if strings.HasPrefix(name, "Index") || strings.HasPrefix(name, "LastIndex") {
				if len(call.Args) > 0 {
					if root := w.rootVar(call.Args[0]); root != nil {
						w.checked[root] = true
					}
				}
				return taintLabel{}, true
			}
			return taintLabel{}, false
		case "io":
			switch name {
			case "ReadFull", "ReadAtLeast":
				taintArgs(call.Args[1:])
				return taintLabel{}, true
			case "ReadAll":
				return taintLabel{wire: true}, true
			}
		case "encoding/json":
			if name == "Unmarshal" || name == "Decode" {
				taintArgs(call.Args)
				return taintLabel{}, true
			}
		}
	}
	// Method reads on net/io/bufio receivers: Read, ReadFromUDP, ... and
	// json.Decoder.Decode.
	recvT := typeOf(w.pkg, sel.X)
	if recvT == nil {
		return taintLabel{}, false
	}
	if _, isDec := isNamed(recvT, "encoding/json", "Decoder"); isDec && name == "Decode" {
		taintArgs(call.Args)
		return taintLabel{}, true
	}
	switch declaredPkgPath(recvT) {
	case "net", "io", "bufio", "os":
		switch name {
		case "Read", "ReadFrom", "ReadFromUDP", "ReadFromIP", "ReadMsgUDP":
			taintArgs(call.Args)
			return taintLabel{}, true
		case "ReadBytes", "ReadString", "ReadSlice":
			// bufio-style: the read bytes come back as the result.
			return taintLabel{wire: true}, true
		}
	}
	return taintLabel{}, false
}

// declaredPkgPath returns the package path of a named (possibly pointer)
// type, or "".
func declaredPkgPath(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	if obj := named.Obj(); obj != nil && obj.Pkg() != nil {
		return obj.Pkg().Path()
	}
	return ""
}

// exprText renders an expression for diagnostics.
func exprText(e ast.Expr) string {
	return types.ExprString(e)
}

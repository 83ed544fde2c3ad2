// Checker allocfree: static zero-allocation gate for the datagram path.
// PR 4 made report→verdict allocation-free and pinned it with
// testing.AllocsPerRun(0) — a dynamic check that only sees the inputs
// the test happens to feed it. This checker turns the contract into a
// whole-program static property: a function whose doc comment carries
// the directive
//
//	//lint:allocfree
//
// must not reach, through any statically-resolvable call chain, a
// construct that allocates. Flagged sources, in the annotated function
// or any transitive callee:
//
//   - make, new, append
//   - map writes (m[k] = v, m[k]++, m[k] += v): an insert may grow the
//     map's buckets
//   - slice and map composite literals; address-taken composite
//     literals (&T{...} escapes); value struct literals are free
//     (*r = Report{...} writes in place)
//   - string concatenation (+ / +=) and string↔[]byte/[]rune conversions
//   - interface boxing: passing or assigning a non-pointer concrete
//     value where an interface is expected (pointers, maps, chans and
//     funcs are single words and box free)
//   - variadic calls that materialize their argument slice
//     (fmt.Sprintf("%d", n) — a spread call g(args...) passes the
//     caller's slice and is free)
//   - function literals (capture) and go statements
//
// Cold branches are exempt: an if/else body whose statement list always
// leaves the function (return, continue, break, panic — the terminates
// rule the lockset checker uses) is an error path, and error paths may
// allocate (fmt.Errorf after a truncated-datagram check; the panic
// message in a BDD bounds check). The contract covers the fall-through
// happy path — exactly what AllocsPerRun measures.
//
// Calls that resolve to nothing — stdlib functions loaded from export
// data only (binary.BigEndian.Uint16), dynamic calls through function
// values (the collector's verdict handler) — are trusted, not flagged:
// the gate is for the code this repository owns. Diagnostics carry the
// call chain from the annotated function to the allocation site, so a
// violation three frames deep reads as "via a → b: make(...) at
// file:line".

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AllocFree enforces `//lint:allocfree` directives interprocedurally.
var AllocFree = &Analyzer{
	Name:   "allocfree",
	Doc:    "functions annotated //lint:allocfree must not reach an allocating construct (make/new/append, escaping literals, string concat, boxing, variadic slices, closures) through any resolvable call chain",
	Global: true,
	Run:    runAllocFree,
}

const allocFreeDirective = "//lint:allocfree"

// allocSite is one allocating construct found in a function body.
type allocSite struct {
	pos  token.Pos
	what string
}

// afCall is one hot (non-cold-branch) resolvable call site.
type afCall struct {
	pos     token.Pos
	callees []*FuncNode
}

// afSummary is the per-function allocation summary.
type afSummary struct {
	allocs []allocSite
	calls  []afCall
}

// afChain is the result of the reachability query: the first allocation
// a function can reach, with the call chain leading to it.
type afChain struct {
	site  allocSite
	chain []string // function names from the queried function's callee down
}

type allocState struct {
	pass      *Pass
	prog      *Program
	sums      map[*FuncNode]*afSummary
	memo      map[*FuncNode]*afChain
	memoDone  map[*FuncNode]bool
	annotated map[*FuncNode]bool
}

func runAllocFree(pass *Pass) {
	st := &allocState{
		pass:      pass,
		prog:      pass.Prog,
		sums:      make(map[*FuncNode]*afSummary),
		memo:      make(map[*FuncNode]*afChain),
		memoDone:  make(map[*FuncNode]bool),
		annotated: make(map[*FuncNode]bool),
	}
	for _, n := range st.prog.nodes {
		if n.Decl != nil && hasAllocFreeDirective(n.Decl.Doc) {
			st.annotated[n] = true
		}
	}
	if len(st.annotated) == 0 {
		return
	}
	for _, n := range st.prog.nodes {
		st.sums[n] = st.summarize(n)
	}
	for _, n := range st.prog.nodes {
		if st.annotated[n] {
			st.check(n)
		}
	}
}

// hasAllocFreeDirective scans raw comment lines: CommentGroup.Text()
// strips directive comments, so the directive must be matched on the
// unprocessed text.
func hasAllocFreeDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), allocFreeDirective) {
			return true
		}
	}
	return false
}

// summarize walks one body's hot statements, recording direct
// allocations and resolvable call sites.
func (st *allocState) summarize(n *FuncNode) *afSummary {
	body := n.body()
	if body == nil {
		return &afSummary{}
	}
	s := &afScan{st: st, node: n, sum: &afSummary{}}
	s.cold = coldRegions(body)
	ast.Inspect(body, s.visit)
	return s.sum
}

// coldRegions marks the if/else blocks that always leave the function —
// the error paths the zero-alloc contract does not cover.
func coldRegions(body *ast.BlockStmt) map[ast.Node]bool {
	cold := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if terminates(ifs.Body.List) {
			cold[ifs.Body] = true
		}
		if blk, isBlk := ifs.Else.(*ast.BlockStmt); isBlk && terminates(blk.List) {
			cold[blk] = true
		}
		return true
	})
	return cold
}

// afScan is the single-body allocation walker.
type afScan struct {
	st   *allocState
	node *FuncNode
	sum  *afSummary
	cold map[ast.Node]bool
}

func (s *afScan) record(pos token.Pos, what string) {
	s.sum.allocs = append(s.sum.allocs, allocSite{pos, what})
}

func (s *afScan) visit(n ast.Node) bool {
	if n == nil {
		return true
	}
	if s.cold[n] {
		return false
	}
	pkg := s.node.Pkg
	switch n := n.(type) {
	case *ast.FuncLit:
		if s.node.Lit != n {
			s.record(n.Pos(), "function literal (closure capture)")
			return false
		}
	case *ast.GoStmt:
		s.record(n.Pos(), "go statement (new goroutine)")
		return false
	case *ast.CompositeLit:
		if t := typeOf(pkg, n); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice:
				s.record(n.Pos(), "slice literal")
			case *types.Map:
				s.record(n.Pos(), "map literal")
			}
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
				s.record(n.Pos(), "address-taken composite literal (escapes)")
			}
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD && isStringType(typeOf(pkg, n.X)) {
			s.record(n.Pos(), "string concatenation")
		}
	case *ast.AssignStmt:
		if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(typeOf(pkg, n.Lhs[0])) {
			s.record(n.Pos(), "string concatenation")
		}
		s.checkBoxingAssign(n)
		for _, lhs := range n.Lhs {
			s.checkMapWrite(lhs)
		}
	case *ast.IncDecStmt:
		s.checkMapWrite(n.X)
	case *ast.CallExpr:
		s.call(n)
	}
	return true
}

// call classifies one call expression: builtin, conversion, or a real
// call (variadic slice, boxing, and resolution into the call graph).
func (s *afScan) call(call *ast.CallExpr) {
	pkg := s.node.Pkg
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				s.record(call.Pos(), "make(...)")
			case "new":
				s.record(call.Pos(), "new(...)")
			case "append":
				s.record(call.Pos(), "append (may grow past capacity)")
			}
			return
		}
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: only string↔[]byte/[]rune copies.
		if len(call.Args) == 1 {
			dst, src := tv.Type, typeOf(pkg, call.Args[0])
			if isStringByteConversion(dst, src) {
				s.record(call.Pos(), "string conversion copies")
			}
		}
		return
	}
	sig, _ := typeOf(pkg, call.Fun).(*types.Signature)
	if sig != nil {
		s.checkVariadic(call, sig)
		s.checkBoxingCall(call, sig)
	}
	if callees := s.st.prog.resolveCall(pkg, call); len(callees) > 0 {
		s.sum.calls = append(s.sum.calls, afCall{call.Pos(), callees})
	}
}

// checkMapWrite flags a store through a map index.
func (s *afScan) checkMapWrite(lhs ast.Expr) {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	if t := typeOf(s.node.Pkg, ix.X); t != nil {
		if _, isMap := t.Underlying().(*types.Map); isMap {
			s.record(ix.Pos(), "map write (may grow the map)")
		}
	}
}

// checkVariadic flags calls that materialize a variadic argument slice.
func (s *afScan) checkVariadic(call *ast.CallExpr, sig *types.Signature) {
	if !sig.Variadic() || call.Ellipsis.IsValid() {
		return
	}
	if len(call.Args) >= sig.Params().Len() {
		s.record(call.Pos(), "variadic call materializes its argument slice")
	}
}

// checkBoxingCall flags non-pointer concrete arguments passed to
// interface-typed parameters.
func (s *afScan) checkBoxingCall(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if call.Ellipsis.IsValid() {
				continue // spread passes the slice through
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		} else {
			continue
		}
		if boxes(pt, typeOf(s.node.Pkg, arg)) {
			s.record(arg.Pos(), "interface boxing of non-pointer value")
		}
	}
}

// checkBoxingAssign flags non-pointer concrete values assigned to
// interface-typed destinations.
func (s *afScan) checkBoxingAssign(n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i := range n.Lhs {
		if boxes(typeOf(s.node.Pkg, n.Lhs[i]), typeOf(s.node.Pkg, n.Rhs[i])) {
			s.record(n.Rhs[i].Pos(), "interface boxing of non-pointer value")
		}
	}
}

// boxes reports whether assigning a src value to a dst location
// allocates an interface box: dst is an interface, src is concrete and
// not pointer-shaped.
func boxes(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	if _, isIface := dst.Underlying().(*types.Interface); !isIface {
		return false
	}
	switch src.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	case *types.Basic:
		b := src.Underlying().(*types.Basic)
		if b.Kind() == types.UntypedNil {
			return false
		}
	}
	return true
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isStringByteConversion(dst, src types.Type) bool {
	return (isStringType(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isStringType(src))
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// reach answers "can n reach an allocation?", memoized, cycles broken by
// treating in-progress nodes as allocation-free along the back edge.
func (st *allocState) reach(n *FuncNode, visiting map[*FuncNode]bool) *afChain {
	if st.memoDone[n] {
		return st.memo[n]
	}
	if visiting[n] {
		return nil
	}
	visiting[n] = true
	defer delete(visiting, n)
	sum := st.sums[n]
	var result *afChain
	if sum != nil && len(sum.allocs) > 0 {
		result = &afChain{site: sum.allocs[0]}
	} else if sum != nil {
		for _, c := range sum.calls {
			for _, callee := range c.callees {
				if sub := st.reach(callee, visiting); sub != nil {
					result = &afChain{
						site:  sub.site,
						chain: append([]string{callee.Name}, sub.chain...),
					}
					break
				}
			}
			if result != nil {
				break
			}
		}
	}
	st.memo[n] = result
	st.memoDone[n] = true
	return result
}

// check reports every violation inside one annotated function: its own
// allocation sites, and each call whose callees reach one.
func (st *allocState) check(n *FuncNode) {
	sum := st.sums[n]
	for _, a := range sum.allocs {
		st.pass.Reportf(a.pos, "%s in //lint:allocfree function %s", a.what, n.Name)
	}
	for _, c := range sum.calls {
		for _, callee := range c.callees {
			if st.annotated[callee] {
				continue // the callee is checked under its own directive
			}
			sub := st.reach(callee, make(map[*FuncNode]bool))
			if sub == nil {
				continue
			}
			via := callee.Name
			if len(sub.chain) > 0 {
				via += " → " + strings.Join(sub.chain, " → ")
			}
			st.pass.Reportf(c.pos,
				"//lint:allocfree function %s calls %s, which allocates: %s at %s",
				n.Name, via, sub.site.what, st.prog.shortPos(sub.site.pos))
			break // one representative chain per call site
		}
	}
}

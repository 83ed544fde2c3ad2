// Translation from switch configurations to transfer predicates — the
// control-plane abstraction Algorithm 2 traverses (§4.1):
//
//	P_{x,y} = P_x^in ∧ P_y^fwd ∧ P_y^out                        (y ≠ ⊥)
//	P_{x,⊥} = ¬P_x^in ∨ (P_x^in ∧ P_⊥^fwd)
//	          ∨ (P_x^in ∧ ∨_y (P_y^fwd ∧ ¬P_y^out))
//
// where P_x^in / P_y^out are the in/out-bound ACL predicates and P_y^fwd is
// the set of headers the prioritized forwarding table sends to port y.

package flowtable

import (
	"cmp"
	"slices"

	"veridp/internal/bdd"
	"veridp/internal/header"
	"veridp/internal/topo"
)

// SwitchConfig is the control plane's view of one switch: its real ports,
// forwarding table, and per-port ACLs (absent entries mean permit-all).
type SwitchConfig struct {
	Ports  []topo.PortID
	Table  *Table
	InACL  map[topo.PortID]ACL
	OutACL map[topo.PortID]ACL
}

// NewSwitchConfig returns a config with an empty table and no ACLs.
func NewSwitchConfig(ports []topo.PortID) *SwitchConfig {
	return &SwitchConfig{
		Ports:  ports,
		Table:  NewTable(),
		InACL:  make(map[topo.PortID]ACL),
		OutACL: make(map[topo.PortID]ACL),
	}
}

// Clone returns a deep copy: rule table and ACLs. The copy shares nothing
// mutable with c, so a monitor can keep its own logical configuration in
// step with a controller's by applying the same FlowMods.
func (c *SwitchConfig) Clone() *SwitchConfig {
	out := &SwitchConfig{
		Ports:  append([]topo.PortID(nil), c.Ports...),
		Table:  c.Table.Clone(),
		InACL:  make(map[topo.PortID]ACL, len(c.InACL)),
		OutACL: make(map[topo.PortID]ACL, len(c.OutACL)),
	}
	for p, acl := range c.InACL {
		out.InACL[p] = append(ACL(nil), acl...)
	}
	for p, acl := range c.OutACL {
		out.OutACL[p] = append(ACL(nil), acl...)
	}
	return out
}

// HasACLs reports whether any port of the switch filters traffic with an
// ACL (an empty list permits everything, like an absent one).
func (c *SwitchConfig) HasACLs() bool {
	for _, acls := range [2]map[topo.PortID]ACL{c.InACL, c.OutACL} {
		for _, acl := range acls {
			if len(acl) > 0 {
				return true
			}
		}
	}
	return false
}

// Classify runs the operational pipeline on one concrete packet: in-ACL,
// prioritized table lookup, out-ACL. Every drop cause (ACL filter, no
// match, explicit drop, nonexistent output port) maps to ⊥. The data-plane
// switch and the verification server's intended-path computation share this
// single definition, so the transfer predicates and the pipeline can never
// disagree by construction drift.
func (c *SwitchConfig) Classify(in topo.PortID, h header.Header) topo.PortID {
	out, _ := c.Forward(in, h)
	return out
}

// Forward is Classify plus the matched rule's rewrite (nil when none
// applies or the packet drops). Out-ACLs are evaluated on the header as it
// will leave the switch, i.e. after the rewrite.
func (c *SwitchConfig) Forward(in topo.PortID, h header.Header) (topo.PortID, *header.Rewrite) {
	if acl, ok := c.InACL[in]; ok && !acl.Allows(h) {
		return topo.DropPort, nil
	}
	r := c.Table.Lookup(in, h)
	if r == nil {
		return topo.DropPort, nil
	}
	out := r.EffectiveOut()
	if out == topo.DropPort {
		return topo.DropPort, nil
	}
	if !validOut(c.Ports, out) {
		return topo.DropPort, nil
	}
	rw := r.Rewrite
	if rw.IsZero() {
		rw = nil
	}
	if acl, ok := c.OutACL[out]; ok && !acl.Allows(rw.Apply(h)) {
		return topo.DropPort, nil
	}
	return out, rw
}

// inPredicate returns P_x^in, within w when port x has an ACL (see
// transferWithin).
func (c *SwitchConfig) inPredicate(s *header.Space, x topo.PortID, w bdd.Ref, pred func(Match) bdd.Ref) bdd.Ref {
	if acl, ok := c.InACL[x]; ok {
		return acl.predicateWithin(s, w, pred)
	}
	return s.All()
}

// usesInPort reports whether any rule constrains the input port, in which
// case forwarding predicates differ per input port.
func (c *SwitchConfig) usesInPort() bool {
	for _, r := range c.Table.Rules() {
		if r.Match.InPort != 0 {
			return true
		}
	}
	return false
}

// PortPair indexes a transfer predicate: packets entering In may leave Out.
type PortPair struct {
	In  topo.PortID
	Out topo.PortID // may be topo.DropPort
}

// Compare orders pairs by input port, then output port (⊥ last).
func (p PortPair) Compare(q PortPair) int {
	if p.In != q.In {
		return cmp.Compare(p.In, q.In)
	}
	return cmp.Compare(p.Out, q.Out)
}

// TransferEntry is one slice of a transfer function: packets matching
// Guard leave through the pair's output port carrying Rewrite (nil for
// unmodified forwarding). Entries of one pair have pairwise-disjoint
// guards.
type TransferEntry struct {
	Guard   bdd.Ref
	Rewrite *header.Rewrite
}

// PairEntry is a transfer entry with the pair it belongs to.
type PairEntry struct {
	PortPair
	TransferEntry
}

// TransferFuncs is the switch's one symbolic semantics: the §4.1 transfer
// predicates P_{x,y} for every input port x and output port y ∈ Ports ∪
// {⊥}, generalized to rewriting rules as the guarded rewrites that apply
// to each ⟨in, out⟩ pair. For configurations without rewrites it
// degenerates to exactly one nil-rewrite entry per pair, guard equal to
// P_{x,y}. Out-bound ACLs are evaluated on the post-rewrite header via
// preimages. Algorithm 2 traverses these functions.
func (c *SwitchConfig) TransferFuncs(s *header.Space) map[PortPair][]TransferEntry {
	list := c.transferWithin(s, s.All(), func(m Match) bdd.Ref { return m.HeaderPredicate(s) })
	out := make(map[PortPair][]TransferEntry, len(list))
	all := make([]TransferEntry, len(list))
	for i := 0; i < len(list); {
		j := i
		for ; j < len(list) && list[j].PortPair == list[i].PortPair; j++ {
			all[j] = list[j].TransferEntry
		}
		out[list[i].PortPair] = all[i:j:j]
		i = j
	}
	return out
}

// TransferWithin returns a function computing TransferFuncs cut down to
// the headers that rule a or rule b matches (either may be nil): the only
// headers whose forwarding can change when one of the switch's rules is
// replaced by another. Every guard it returns is TransferFuncs' guard ∧ W,
// W the union of the two rules' header predicates, for the rules the
// table holds at the call — so calling it before and after an edit that
// replaces a with b gives both sides of the edit. The entries come in
// PortPair.Compare order. A rule or ACL entry whose destination prefix is
// disjoint from a's and b's cannot meet W, and is skipped before its
// predicate is built.
func (c *SwitchConfig) TransferWithin(s *header.Space, a, b *Rule) func() []PairEntry {
	type edited struct {
		m Match
		p bdd.Ref
	}
	var eds []edited
	w := bdd.False
	for _, r := range [2]*Rule{a, b} {
		if r != nil {
			p := r.Match.HeaderPredicate(s)
			eds = append(eds, edited{r.Match, p})
			w = s.T.Or(w, p)
		}
	}
	pred := func(m Match) bdd.Ref {
		near := false
		for _, e := range eds {
			if e.m.DstPrefix.Overlaps(m.DstPrefix) {
				if e.m == m {
					return e.p
				}
				near = true
			}
		}
		if near {
			return m.HeaderPredicate(s)
		}
		return bdd.False
	}
	return func() []PairEntry { return c.transferWithin(s, w, pred) }
}

// flatEntry is one output bucket of a priority scan: the headers a rule
// sends out port y with rewrite rw.
type flatEntry struct {
	y     topo.PortID
	guard bdd.Ref
	rw    *header.Rewrite
}

// transferWithin computes the transfer functions over the headers in w,
// in PortPair.Compare order. pred returns a match's header predicate, or
// False for a match that cannot meet w.
func (c *SwitchConfig) transferWithin(s *header.Space, w bdd.Ref, pred func(Match) bdd.Ref) []PairEntry {
	out := make([]PairEntry, 0, 2*len(c.Ports))
	// A scan's buckets hold distinct ⟨out, rewrite⟩ pairs and none is ⊥,
	// so every entry added for one input port is a new one.
	addEntry := func(pp PortPair, guard bdd.Ref, rw *header.Rewrite) {
		if guard != bdd.False {
			out = append(out, PairEntry{pp, TransferEntry{Guard: guard, Rewrite: rw}})
		}
	}

	// The expensive priority scan is input-port independent unless some
	// rule matches on the input port; compute it once in that case and
	// specialize per port only by the (cheap) in-ACL predicate.
	perInput := c.usesInPort()
	var sharedFlat []flatEntry
	var sharedDrop bdd.Ref
	if !perInput {
		sharedFlat, sharedDrop = c.scanRules(s, 0, w, pred)
	}

	for _, x := range c.Ports {
		flat, drop := sharedFlat, sharedDrop
		if perInput {
			flat, drop = c.scanRules(s, x, w, pred)
		}
		pin := c.inPredicate(s, x, w, pred)
		if pin == bdd.True {
			for _, fe := range flat {
				addEntry(PortPair{x, fe.y}, fe.guard, fe.rw)
			}
			addEntry(PortPair{x, topo.DropPort}, drop, nil)
			continue
		}
		for _, fe := range flat {
			addEntry(PortPair{x, fe.y}, s.T.And(pin, fe.guard), fe.rw)
		}
		addEntry(PortPair{x, topo.DropPort},
			s.T.Or(s.T.Diff(w, pin), s.T.And(pin, drop)), nil)
	}
	slices.SortStableFunc(out, func(a, b PairEntry) int { return a.Compare(b.PortPair) })
	return out
}

// scanRules runs the priority scan over the headers in w for packets
// arriving on inPort (0 when no rule constrains the input port), without
// the in-ACL term. It returns per-output guarded rewrites plus the drop
// guard, all inside w.
func (c *SwitchConfig) scanRules(s *header.Space, inPort topo.PortID, w bdd.Ref, pred func(Match) bdd.Ref) ([]flatEntry, bdd.Ref) {
	var flat []flatEntry
	drop := bdd.False
	remaining := w
	var outACLPred map[topo.PortID]bdd.Ref
	for _, r := range c.Table.Rules() {
		if remaining == bdd.False {
			break
		}
		if r.Match.InPort != 0 && r.Match.InPort != inPort {
			continue
		}
		p := pred(r.Match)
		if p == bdd.False {
			continue
		}
		hit := s.T.And(remaining, p)
		if hit == bdd.False {
			continue
		}
		remaining = s.T.Diff(remaining, hit)

		y := r.EffectiveOut()
		if y != topo.DropPort && !validOut(c.Ports, y) {
			y = topo.DropPort // nonexistent port: the packet drops
		}
		if y == topo.DropPort {
			drop = s.T.Or(drop, hit)
			continue
		}
		rw := r.Rewrite
		if rw.IsZero() {
			rw = nil
		}
		pass := hit
		if acl, ok := c.OutACL[y]; ok {
			p, cached := outACLPred[y]
			if !cached {
				p = acl.Predicate(s)
				if outACLPred == nil {
					outACLPred = make(map[topo.PortID]bdd.Ref)
				}
				outACLPred[y] = p
			}
			allowed := s.Preimage(p, rw)
			pass = s.T.And(hit, allowed)
			drop = s.T.Or(drop, s.T.Diff(hit, allowed))
		}
		// Merge into an existing (y, rw) bucket.
		merged := false
		for i := range flat {
			if flat[i].y == y && flat[i].rw.Equal(rw) {
				flat[i].guard = s.T.Or(flat[i].guard, pass)
				merged = true
				break
			}
		}
		if !merged && pass != bdd.False {
			flat = append(flat, flatEntry{y: y, guard: pass, rw: rw})
		}
	}
	drop = s.T.Or(drop, remaining) // unmatched headers drop
	return flat, drop
}

func validOut(ports []topo.PortID, p topo.PortID) bool {
	for _, q := range ports {
		if q == p {
			return true
		}
	}
	return false
}

// The prefix tree of §4.4: destination-prefix forwarding rules organized by
// prefix containment, with a virtual drop rule at 0.0.0.0/0 turning the
// forest into a tree. Adding or deleting a rule R moves exactly one header
// set between two output ports, and the tree returns that move as a Delta:
//
//	add R (out x, parent out y):   Δ = R.match moves y → x
//	del R (out x, parent out y):   Δ = R.match moves x → y
//
// where R.match = R.prefix ∧ ¬(∨ children prefixes) is the longest-match
// exclusive header set of the rule. The tree keeps no predicates of its
// own: the switch's transfer guards (SwitchConfig.TransferFuncs) are the
// one copy, and the path table patches them with each Delta.

package flowtable

import (
	"fmt"

	"veridp/internal/bdd"
	"veridp/internal/header"
	"veridp/internal/topo"
)

// pnode is one tree node: a rule plus the rules immediately nested inside
// its prefix.
type pnode struct {
	prefix   Prefix
	outPort  topo.PortID // topo.DropPort for the virtual root
	children []*pnode
}

// PrefixTree holds one switch's destination-prefix rules, keyed by the
// caller's rule IDs.
type PrefixTree struct {
	space *header.Space
	ports []topo.PortID
	root  *pnode
	byID  map[uint64]*pnode
}

// Delta describes the header-space change one rule add/delete caused: the
// set Δ moved from port From to port To. The path-table updater (§4.4,
// "path entry update") consumes it.
type Delta struct {
	Set  bdd.Ref
	From topo.PortID
	To   topo.PortID
}

// NewPrefixTree returns a tree over the given real ports, initially
// dropping everything (only the virtual 0.0.0.0/0 drop rule is present).
func NewPrefixTree(s *header.Space, ports []topo.PortID) *PrefixTree {
	return &PrefixTree{
		space: s,
		ports: ports,
		root:  &pnode{prefix: Prefix{0, 0}, outPort: topo.DropPort},
		byID:  make(map[uint64]*pnode),
	}
}

// findParent descends from the root to the deepest node whose prefix
// contains p, which will be the new rule's parent.
func (t *PrefixTree) findParent(p Prefix) *pnode {
	cur := t.root
descend:
	for {
		for _, c := range cur.children {
			if c.prefix.Contains(p) {
				cur = c
				continue descend
			}
		}
		return cur
	}
}

// match computes R.match for a node: its prefix minus its children's
// prefixes.
func (t *PrefixTree) match(n *pnode) bdd.Ref {
	m := t.space.DstIPPrefix(n.prefix.IP, n.prefix.Len)
	for _, c := range n.children {
		m = t.space.T.Diff(m, t.space.DstIPPrefix(c.prefix.IP, c.prefix.Len))
	}
	return m
}

// Insert adds rule id, forwarding prefix p to outPort (topo.DropPort for a
// drop rule), and returns the header set it moves. Duplicate IDs and
// duplicate prefixes are rejected (longest-prefix match cannot
// disambiguate the latter), as are 0.0.0.0/0 and ports the switch lacks.
func (t *PrefixTree) Insert(id uint64, p Prefix, outPort topo.PortID) (Delta, error) {
	p = p.Canonical()
	if _, dup := t.byID[id]; dup {
		return Delta{}, fmt.Errorf("flowtable: prefix tree already has rule %d", id)
	}
	if outPort != topo.DropPort && !validOut(t.ports, outPort) {
		return Delta{}, fmt.Errorf("flowtable: prefix tree has no port %s", outPort)
	}
	if p.Len == 0 {
		return Delta{}, fmt.Errorf("flowtable: cannot install 0.0.0.0/0 over the virtual root")
	}
	parent := t.findParent(p)
	if parent.prefix.Equal(p) {
		return Delta{}, fmt.Errorf("flowtable: duplicate prefix %s", p)
	}
	n := &pnode{prefix: p, outPort: outPort}

	// Children of the parent that nest inside p move under n.
	kept := parent.children[:0]
	for _, c := range parent.children {
		if p.Contains(c.prefix) {
			n.children = append(n.children, c)
		} else {
			kept = append(kept, c)
		}
	}
	parent.children = append(kept, n)
	t.byID[id] = n
	// A child forwarding to its parent's port moves nothing (From == To).
	return Delta{Set: t.match(n), From: parent.outPort, To: outPort}, nil
}

// Remove deletes rule id and returns the header set that reverts to the
// enclosing rule's port.
func (t *PrefixTree) Remove(id uint64) (Delta, error) {
	n, ok := t.byID[id]
	if !ok {
		return Delta{}, fmt.Errorf("flowtable: prefix tree has no rule %d", id)
	}
	parent := t.parentOf(n)
	delta := t.match(n)

	// Children revert to the parent.
	kept := parent.children[:0]
	for _, c := range parent.children {
		if c != n {
			kept = append(kept, c)
		}
	}
	parent.children = append(kept, n.children...)
	delete(t.byID, id)
	return Delta{Set: delta, From: n.outPort, To: parent.outPort}, nil
}

// parentOf walks from the root to n's parent. The tree is shallow in
// practice (forwarding tables nest a few levels deep), so the walk is cheap.
func (t *PrefixTree) parentOf(n *pnode) *pnode {
	cur := t.root
descend:
	for {
		for _, c := range cur.children {
			if c == n {
				return cur
			}
			if c.prefix.Contains(n.prefix) {
				cur = c
				continue descend
			}
		}
		// Unreachable for nodes present in the tree.
		panic("flowtable: prefix tree parent not found")
	}
}

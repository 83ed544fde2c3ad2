// The flow table proper: prioritized rule storage with OpenFlow-style
// lookup, plus ACL lists evaluated before and after forwarding.

package flowtable

import (
	"fmt"
	"sort"

	"veridp/internal/bdd"
	"veridp/internal/header"
	"veridp/internal/topo"
)

// Table is one switch's flow table. Rules are kept sorted by descending
// priority (ties by ascending ID) so Lookup is a linear scan that returns
// the first hit — exactly the priority semantics whose violation the paper's
// "premature switch implementation" fault models (§2.2).
//
// Table is not safe for concurrent use; the dataplane switch serializes
// access.
type Table struct {
	rules  []*Rule
	byID   map[uint64]*Rule
	nextID uint64
}

// NewTable returns an empty flow table.
func NewTable() *Table {
	return &Table{byID: make(map[uint64]*Rule), nextID: 1}
}

// Clone returns a deep copy of the table: the same rules, IDs and match
// order.
func (t *Table) Clone() *Table {
	c := &Table{rules: make([]*Rule, len(t.rules)), byID: make(map[uint64]*Rule, len(t.rules)), nextID: t.nextID}
	for i, r := range t.rules {
		c.rules[i] = r.Clone()
		c.byID[r.ID] = c.rules[i]
	}
	return c
}

// Len returns the number of installed rules.
func (t *Table) Len() int { return len(t.rules) }

// Rules returns the rules in match order (descending priority). The slice
// is shared; callers must not mutate it.
func (t *Table) Rules() []*Rule { return t.rules }

// Get returns the rule with the given ID, or nil.
func (t *Table) Get(id uint64) *Rule { return t.byID[id] }

// Add installs a copy of the rule and returns its assigned ID. A zero
// r.ID is assigned the next fresh ID; a nonzero ID must be unused (this is
// how the controller and data plane keep rule identity aligned across the
// southbound channel).
func (t *Table) Add(r *Rule) (uint64, error) {
	c := r.Clone()
	if c.ID == 0 {
		c.ID = t.nextID
	}
	if _, dup := t.byID[c.ID]; dup {
		return 0, fmt.Errorf("flowtable: duplicate rule ID %d", c.ID)
	}
	if c.ID >= t.nextID {
		t.nextID = c.ID + 1
	}
	t.byID[c.ID] = c
	idx := sort.Search(len(t.rules), func(i int) bool {
		ri := t.rules[i]
		if ri.Priority != c.Priority {
			return ri.Priority < c.Priority
		}
		return ri.ID > c.ID
	})
	t.rules = append(t.rules, nil)
	copy(t.rules[idx+1:], t.rules[idx:])
	t.rules[idx] = c
	return c.ID, nil
}

// Delete removes the rule with the given ID.
func (t *Table) Delete(id uint64) error {
	if _, ok := t.byID[id]; !ok {
		return fmt.Errorf("flowtable: no rule with ID %d", id)
	}
	delete(t.byID, id)
	for i, r := range t.rules {
		if r.ID == id {
			t.rules = append(t.rules[:i], t.rules[i+1:]...)
			break
		}
	}
	return nil
}

// Modify replaces the match/action of an existing rule in place, keeping
// its ID. Per §4.4 a modification is semantically delete-then-add; Modify
// exists because external-modification faults (§2.2) alter rules in place.
func (t *Table) Modify(id uint64, mutate func(*Rule)) error {
	r, ok := t.byID[id]
	if !ok {
		return fmt.Errorf("flowtable: no rule with ID %d", id)
	}
	pri := r.Priority
	mutate(r)
	if r.ID != id {
		r.ID = id // identity is not mutable
	}
	if r.Priority != pri {
		// Re-sort under the new priority.
		if err := t.Delete(id); err != nil {
			return err
		}
		if _, err := t.Add(r); err != nil {
			return err
		}
	}
	return nil
}

// Lookup returns the highest-priority rule matching the header on inPort,
// or nil if no rule matches (the paper's drop case (1): "the packet does
// not match any forwarding entry").
func (t *Table) Lookup(inPort topo.PortID, h header.Header) *Rule {
	for _, r := range t.rules {
		if r.Match.MatchesHeader(inPort, h) {
			return r
		}
	}
	return nil
}

// ACLRule is one access-control entry. ACLs are evaluated first-match with
// an implicit final permit, the convention of the Stanford configurations
// the paper parses (deny rules carve exceptions out of default
// connectivity).
type ACLRule struct {
	Match  Match
	Permit bool
}

// ACL is an ordered access-control list bound to a port direction.
type ACL []ACLRule

// Allows reports whether the header passes the ACL.
func (a ACL) Allows(h header.Header) bool {
	for _, r := range a {
		if r.Match.MatchesHeader(0, h) {
			return r.Permit
		}
	}
	return true
}

// Predicate returns the BDD of headers the ACL admits: the P^in / P^out
// port predicates of §4.1.
func (a ACL) Predicate(s *header.Space) bdd.Ref {
	return a.predicateWithin(s, s.All(), func(m Match) bdd.Ref { return m.HeaderPredicate(s) })
}

// predicateWithin is Predicate ∧ w, with pred as in transferWithin.
func (a ACL) predicateWithin(s *header.Space, w bdd.Ref, pred func(Match) bdd.Ref) bdd.Ref {
	allowed := bdd.False
	remaining := w
	for _, r := range a {
		m := pred(r.Match)
		hit := s.T.And(remaining, m)
		if r.Permit {
			allowed = s.T.Or(allowed, hit)
		}
		remaining = s.T.Diff(remaining, m)
	}
	return s.T.Or(allowed, remaining) // implicit final permit
}

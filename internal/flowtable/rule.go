// Package flowtable implements OpenFlow-style flow tables: prioritized
// rules over 5-tuple matches, lookup semantics, ACLs, and the translation
// from rule sets to the per-port BDD predicates that VeriDP's path-table
// construction consumes (§4.1), whole or cut down to the headers one rule
// edit can move (§4.4's incremental update).
package flowtable

import (
	"fmt"

	"veridp/internal/bdd"
	"veridp/internal/header"
	"veridp/internal/topo"
)

// Prefix is an IPv4 prefix.
type Prefix struct {
	IP  uint32
	Len int // 0..32; 0 matches everything
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", header.IPString(p.IP), p.Len)
}

// mask returns the network mask for the prefix length.
func (p Prefix) mask() uint32 {
	if p.Len <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - p.Len)
}

// Canonical returns the prefix with host bits zeroed.
func (p Prefix) Canonical() Prefix {
	return Prefix{IP: p.IP & p.mask(), Len: p.Len}
}

// Matches reports whether the address falls inside the prefix.
func (p Prefix) Matches(ip uint32) bool {
	return ip&p.mask() == p.IP&p.mask()
}

// Overlaps reports whether p and o share an address: one contains the
// other.
func (p Prefix) Overlaps(o Prefix) bool {
	shorter := p
	if o.Len < p.Len {
		shorter = o
	}
	return (p.IP^o.IP)&shorter.mask() == 0
}

// Equal reports whether two prefixes denote the same address block.
func (p Prefix) Equal(o Prefix) bool {
	return p.Len == o.Len && p.IP&p.mask() == o.IP&o.mask()
}

// Match is the match half of a rule: every populated field must match. The
// zero Match matches every packet on every port.
type Match struct {
	InPort    topo.PortID // 0 = any input port
	SrcPrefix Prefix      // Len 0 = any
	DstPrefix Prefix      // Len 0 = any
	HasProto  bool
	Proto     uint8
	HasSrc    bool
	SrcPort   uint16
	HasDst    bool
	DstPort   uint16
}

// MatchesHeader reports whether the rule matches the concrete header
// arriving on inPort.
func (m Match) MatchesHeader(inPort topo.PortID, h header.Header) bool {
	if m.InPort != 0 && m.InPort != inPort {
		return false
	}
	if !m.SrcPrefix.Matches(h.SrcIP) || !m.DstPrefix.Matches(h.DstIP) {
		return false
	}
	if m.HasProto && m.Proto != h.Proto {
		return false
	}
	if m.HasSrc && m.SrcPort != h.SrcPort {
		return false
	}
	if m.HasDst && m.DstPort != h.DstPort {
		return false
	}
	return true
}

// HeaderPredicate returns the BDD over header fields (ignoring InPort, which
// the transfer-predicate computation handles separately).
func (m Match) HeaderPredicate(s *header.Space) bdd.Ref {
	r := s.All()
	if m.SrcPrefix.Len > 0 {
		r = s.T.And(r, s.SrcIPPrefix(m.SrcPrefix.IP, m.SrcPrefix.Len))
	}
	if m.DstPrefix.Len > 0 {
		r = s.T.And(r, s.DstIPPrefix(m.DstPrefix.IP, m.DstPrefix.Len))
	}
	if m.HasProto {
		r = s.T.And(r, s.ProtoEq(m.Proto))
	}
	if m.HasSrc {
		r = s.T.And(r, s.SrcPortEq(m.SrcPort))
	}
	if m.HasDst {
		r = s.T.And(r, s.DstPortEq(m.DstPort))
	}
	return r
}

// String summarizes the match compactly.
func (m Match) String() string {
	s := ""
	add := func(f string, args ...interface{}) {
		if s != "" {
			s += ","
		}
		s += fmt.Sprintf(f, args...)
	}
	if m.InPort != 0 {
		add("in=%s", m.InPort)
	}
	if m.SrcPrefix.Len > 0 {
		add("src=%s", m.SrcPrefix)
	}
	if m.DstPrefix.Len > 0 {
		add("dst=%s", m.DstPrefix)
	}
	if m.HasProto {
		add("proto=%d", m.Proto)
	}
	if m.HasSrc {
		add("sport=%d", m.SrcPort)
	}
	if m.HasDst {
		add("dport=%d", m.DstPort)
	}
	if s == "" {
		return "any"
	}
	return s
}

// Action is what a rule does with a matching packet.
type Action uint8

const (
	// ActOutput forwards to OutPort.
	ActOutput Action = iota
	// ActDrop discards the packet — the paper's drop case (1), an explicit
	// deny, or case (2) folded in: an entry with no output port behaves as
	// drop and maps to the ⊥ port.
	ActDrop
)

// Rule is one flow entry. Higher Priority wins; ties break toward the
// earlier-installed rule (lower ID), matching common switch behavior.
type Rule struct {
	ID       uint64
	Priority uint16
	Match    Match
	Action   Action
	OutPort  topo.PortID
	// Rewrite, when non-nil, pins header fields before output (OpenFlow
	// set-field; the paper's future-work extension). Ignored for drops.
	Rewrite *header.Rewrite
}

// EffectiveOut returns the rule's output port, mapping drops to ⊥.
func (r *Rule) EffectiveOut() topo.PortID {
	if r.Action == ActDrop {
		return topo.DropPort
	}
	return r.OutPort
}

// String renders the rule for logs and debugging.
func (r *Rule) String() string {
	act := fmt.Sprintf("output:%s", r.OutPort)
	if r.Action == ActDrop {
		act = "drop"
	}
	if !r.Rewrite.IsZero() {
		act = r.Rewrite.String() + "," + act
	}
	return fmt.Sprintf("#%d pri=%d [%s] -> %s", r.ID, r.Priority, r.Match, act)
}

// Clone returns a deep copy of the rule.
func (r *Rule) Clone() *Rule {
	c := *r
	if r.Rewrite != nil {
		rw := *r.Rewrite
		c.Rewrite = &rw
	}
	return &c
}

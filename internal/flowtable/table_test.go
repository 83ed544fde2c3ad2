package flowtable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"veridp/internal/header"
	"veridp/internal/topo"
)

func ip(s string) uint32 { return header.MustParseIP(s) }

func TestPrefixBasics(t *testing.T) {
	p := Prefix{ip("10.1.2.3"), 16}
	if got := p.Canonical(); got.IP != ip("10.1.0.0") {
		t.Fatalf("Canonical = %v", got)
	}
	if !p.Matches(ip("10.1.255.255")) || p.Matches(ip("10.2.0.0")) {
		t.Fatal("Matches wrong")
	}
	for _, c := range []struct {
		a, b Prefix
		want bool
	}{
		{Prefix{ip("10.0.0.0"), 8}, Prefix{ip("10.1.0.0"), 16}, true},
		{Prefix{ip("10.1.0.0"), 16}, Prefix{ip("10.2.0.0"), 16}, false},
		{Prefix{ip("10.1.2.3"), 32}, Prefix{ip("10.1.2.0"), 24}, true},
		{Prefix{0, 0}, Prefix{ip("192.0.2.1"), 32}, true},
	} {
		if c.a.Overlaps(c.b) != c.want || c.b.Overlaps(c.a) != c.want {
			t.Fatalf("%v overlaps %v: want %v", c.a, c.b, c.want)
		}
	}
	if (Prefix{0, 0}).String() != "0.0.0.0/0" {
		t.Fatal("String wrong")
	}
	if !(Prefix{0, 0}).Matches(0xdeadbeef) {
		t.Fatal("/0 must match everything")
	}
}

func TestMatchSemantics(t *testing.T) {
	m := Match{
		InPort:    2,
		SrcPrefix: Prefix{ip("10.0.1.0"), 24},
		HasDst:    true,
		DstPort:   80,
	}
	h := header.Header{SrcIP: ip("10.0.1.5"), DstIP: ip("10.0.2.1"), Proto: header.ProtoTCP, DstPort: 80}
	if !m.MatchesHeader(2, h) {
		t.Fatal("should match")
	}
	if m.MatchesHeader(1, h) {
		t.Fatal("wrong in-port matched")
	}
	h2 := h
	h2.DstPort = 81
	if m.MatchesHeader(2, h2) {
		t.Fatal("wrong dst port matched")
	}
	h3 := h
	h3.SrcIP = ip("10.0.2.5")
	if m.MatchesHeader(2, h3) {
		t.Fatal("wrong src prefix matched")
	}
	var any Match
	if !any.MatchesHeader(7, h) {
		t.Fatal("zero match should match everything")
	}
	if any.String() != "any" {
		t.Fatalf("zero match String = %q", any.String())
	}
}

// Property: Match.MatchesHeader agrees with Match.HeaderPredicate for
// matches that don't constrain the input port.
func TestQuickMatchAgreesWithPredicate(t *testing.T) {
	s := header.NewSpace()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		m := Match{}
		if rng.Intn(2) == 0 {
			m.SrcPrefix = Prefix{rng.Uint32(), rng.Intn(33)}.Canonical()
		}
		if rng.Intn(2) == 0 {
			m.DstPrefix = Prefix{rng.Uint32(), rng.Intn(33)}.Canonical()
		}
		if rng.Intn(3) == 0 {
			m.HasProto, m.Proto = true, uint8(rng.Intn(256))
		}
		if rng.Intn(3) == 0 {
			m.HasDst, m.DstPort = true, uint16(rng.Intn(65536))
		}
		h := header.Header{
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			Proto: uint8(rng.Intn(256)), SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
		}
		// Bias toward hits: half the time copy matched fields into h.
		if rng.Intn(2) == 0 {
			h.SrcIP = m.SrcPrefix.IP | h.SrcIP&^m.SrcPrefix.mask()
			h.DstIP = m.DstPrefix.IP | h.DstIP&^m.DstPrefix.mask()
			if m.HasProto {
				h.Proto = m.Proto
			}
			if m.HasDst {
				h.DstPort = m.DstPort
			}
		}
		want := m.MatchesHeader(0, h)
		got := s.Contains(m.HeaderPredicate(s), h)
		if got != want {
			t.Fatalf("trial %d: predicate %v vs direct %v for match %v, header %v", trial, got, want, m, h)
		}
	}
}

func TestTableAddDeleteLookup(t *testing.T) {
	tb := NewTable()
	id1, err := tb.Add(&Rule{Priority: 10, Match: Match{DstPrefix: Prefix{ip("10.0.0.0"), 8}}, Action: ActOutput, OutPort: 1})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := tb.Add(&Rule{Priority: 20, Match: Match{DstPrefix: Prefix{ip("10.1.0.0"), 16}}, Action: ActOutput, OutPort: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	// Higher priority wins.
	r := tb.Lookup(1, header.Header{DstIP: ip("10.1.2.3")})
	if r == nil || r.ID != id2 {
		t.Fatalf("Lookup returned %v, want rule %d", r, id2)
	}
	r = tb.Lookup(1, header.Header{DstIP: ip("10.2.2.3")})
	if r == nil || r.ID != id1 {
		t.Fatalf("Lookup returned %v, want rule %d", r, id1)
	}
	if tb.Lookup(1, header.Header{DstIP: ip("11.0.0.1")}) != nil {
		t.Fatal("lookup matched nothing-rule")
	}
	if err := tb.Delete(id2); err != nil {
		t.Fatal(err)
	}
	r = tb.Lookup(1, header.Header{DstIP: ip("10.1.2.3")})
	if r == nil || r.ID != id1 {
		t.Fatal("delete did not take effect")
	}
	if err := tb.Delete(id2); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestTablePriorityTieBreak(t *testing.T) {
	tb := NewTable()
	idA, _ := tb.Add(&Rule{Priority: 5, Action: ActOutput, OutPort: 1})
	tb.Add(&Rule{Priority: 5, Action: ActOutput, OutPort: 2})
	r := tb.Lookup(1, header.Header{})
	if r.ID != idA {
		t.Fatalf("tie should break to earliest-installed rule, got %d", r.ID)
	}
}

func TestTableExplicitIDs(t *testing.T) {
	tb := NewTable()
	if _, err := tb.Add(&Rule{ID: 42, Action: ActDrop}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Add(&Rule{ID: 42, Action: ActDrop}); err == nil {
		t.Fatal("duplicate explicit ID accepted")
	}
	id, _ := tb.Add(&Rule{Action: ActDrop})
	if id <= 42 {
		t.Fatalf("fresh ID %d did not advance past explicit ID", id)
	}
	if tb.Get(42) == nil || tb.Get(999) != nil {
		t.Fatal("Get broken")
	}
}

func TestTableModify(t *testing.T) {
	tb := NewTable()
	id, _ := tb.Add(&Rule{Priority: 1, Action: ActOutput, OutPort: 1})
	if err := tb.Modify(id, func(r *Rule) { r.OutPort = 3 }); err != nil {
		t.Fatal(err)
	}
	if tb.Get(id).OutPort != 3 {
		t.Fatal("modify lost")
	}
	// Priority changes re-sort.
	tb.Add(&Rule{Priority: 5, Action: ActOutput, OutPort: 9})
	if err := tb.Modify(id, func(r *Rule) { r.Priority = 10 }); err != nil {
		t.Fatal(err)
	}
	r := tb.Lookup(1, header.Header{})
	if r.ID != id {
		t.Fatal("priority bump did not re-sort")
	}
	if err := tb.Modify(777, func(r *Rule) {}); err == nil {
		t.Fatal("modify of missing rule succeeded")
	}
}

func TestRuleEffectiveOut(t *testing.T) {
	r := &Rule{Action: ActDrop, OutPort: 3}
	if r.EffectiveOut() != topo.DropPort {
		t.Fatal("drop rule should map to ⊥")
	}
	r.Action = ActOutput
	if r.EffectiveOut() != 3 {
		t.Fatal("output rule should map to its port")
	}
}

func TestACLSemantics(t *testing.T) {
	acl := ACL{
		{Match: Match{SrcPrefix: Prefix{ip("10.9.0.0"), 16}, HasDst: true, DstPort: 22}, Permit: true},
		{Match: Match{SrcPrefix: Prefix{ip("10.9.0.0"), 16}}, Permit: false},
	}
	if !acl.Allows(header.Header{SrcIP: ip("10.9.1.1"), DstPort: 22}) {
		t.Fatal("explicit permit ignored")
	}
	if acl.Allows(header.Header{SrcIP: ip("10.9.1.1"), DstPort: 80}) {
		t.Fatal("deny ignored")
	}
	if !acl.Allows(header.Header{SrcIP: ip("10.8.1.1"), DstPort: 80}) {
		t.Fatal("implicit final permit missing")
	}
}

// Property: ACL.Allows agrees with ACL.Predicate.
func TestQuickACLAgreesWithPredicate(t *testing.T) {
	s := header.NewSpace()
	acl := ACL{
		{Match: Match{SrcPrefix: Prefix{ip("10.9.0.0"), 16}, HasDst: true, DstPort: 22}, Permit: true},
		{Match: Match{SrcPrefix: Prefix{ip("10.9.0.0"), 16}}, Permit: false},
		{Match: Match{HasProto: true, Proto: header.ProtoUDP, DstPrefix: Prefix{ip("10.0.0.0"), 8}}, Permit: false},
	}
	pred := acl.Predicate(s)
	prop := func(src, dst uint32, proto uint8, dport uint16) bool {
		h := header.Header{SrcIP: src, DstIP: dst, Proto: proto, DstPort: dport}
		// Bias some samples into the interesting prefixes.
		if src%3 == 0 {
			h.SrcIP = ip("10.9.0.0") | src&0xffff
		}
		if dst%3 == 0 {
			h.DstIP = ip("10.0.0.0") | dst&0xffffff
		}
		return acl.Allows(h) == s.Contains(pred, h)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

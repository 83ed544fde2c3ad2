package header

import (
	"math/rand"
	"testing"
	"testing/quick"

	"veridp/internal/bdd"
)

func TestParseIP(t *testing.T) {
	cases := []struct {
		in   string
		want uint32
		ok   bool
	}{
		{"10.0.0.1", 0x0a000001, true},
		{"255.255.255.255", 0xffffffff, true},
		{"0.0.0.0", 0, true},
		{"192.168.1.200", 0xc0a801c8, true},
		{"256.0.0.1", 0, false},
		{"10.0.0", 0, false},
		{"bogus", 0, false},
	}
	for _, c := range cases {
		got, err := ParseIP(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseIP(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseIP(%q) succeeded, want error", c.in)
		}
	}
}

func TestIPStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		ip := rng.Uint32()
		back, err := ParseIP(IPString(ip))
		if err != nil || back != ip {
			t.Fatalf("round trip failed for %#x: got %#x, err %v", ip, back, err)
		}
	}
}

func TestMustParseIPPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseIP accepted garbage")
		}
	}()
	MustParseIP("not-an-ip")
}

func TestHeaderString(t *testing.T) {
	h := Header{SrcIP: MustParseIP("10.0.0.1"), DstIP: MustParseIP("10.0.0.2"),
		Proto: ProtoTCP, SrcPort: 1234, DstPort: 80}
	want := "10.0.0.1:1234 > 10.0.0.2:80 proto 6"
	if got := h.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestHeaderSetSingleton(t *testing.T) {
	s := NewSpace()
	h := Header{SrcIP: MustParseIP("10.0.1.1"), DstIP: MustParseIP("10.0.2.1"),
		Proto: ProtoTCP, SrcPort: 40000, DstPort: 22}
	set := s.HeaderSet(h)
	if got := s.T.SatCount(set); got != 1 {
		t.Fatalf("singleton set has SatCount %v, want 1", got)
	}
	if !s.Contains(set, h) {
		t.Fatal("singleton does not contain its own header")
	}
	other := h
	other.DstPort = 23
	if s.Contains(set, other) {
		t.Fatal("singleton contains a different header")
	}
}

func TestPrefixPredicates(t *testing.T) {
	s := NewSpace()
	p := s.DstIPPrefix(MustParseIP("10.0.2.0"), 24)
	in := Header{DstIP: MustParseIP("10.0.2.77")}
	out := Header{DstIP: MustParseIP("10.0.3.77")}
	if !s.Contains(p, in) {
		t.Fatal("address inside prefix rejected")
	}
	if s.Contains(p, out) {
		t.Fatal("address outside prefix accepted")
	}
	// /0 matches everything.
	if s.DstIPPrefix(0, 0) != bdd.True {
		t.Fatal("/0 prefix is not all-match")
	}
	// /32 is address equality.
	if s.DstIPPrefix(MustParseIP("1.2.3.4"), 32) != s.DstIPEq(MustParseIP("1.2.3.4")) {
		t.Fatal("/32 prefix differs from equality predicate")
	}
}

func TestPrefixSatCount(t *testing.T) {
	s := NewSpace()
	// A /24 prefix constrains 24 of 104 bits: 2^80 headers.
	p := s.DstIPPrefix(MustParseIP("10.1.1.0"), 24)
	want := 1.0
	for i := 0; i < 80; i++ {
		want *= 2
	}
	if got := s.T.SatCount(p); got != want {
		t.Fatalf("/24 SatCount = %g, want %g", got, want)
	}
}

func TestPrefixNesting(t *testing.T) {
	s := NewSpace()
	wide := s.DstIPPrefix(MustParseIP("10.0.0.0"), 8)
	narrow := s.DstIPPrefix(MustParseIP("10.1.0.0"), 16)
	if !s.T.Implies(narrow, wide) {
		t.Fatal("10.1.0.0/16 should be inside 10.0.0.0/8")
	}
	disjoint := s.DstIPPrefix(MustParseIP("11.0.0.0"), 8)
	if s.T.And(wide, disjoint) != bdd.False {
		t.Fatal("10/8 and 11/8 should be disjoint")
	}
}

func TestNotDstPort22(t *testing.T) {
	// The paper's Table 1 example: dst_port != 22 as the complement set.
	s := NewSpace()
	ssh := s.DstPortEq(22)
	notSSH := s.T.Not(ssh)
	if s.Contains(notSSH, Header{DstPort: 22}) {
		t.Fatal("¬(dst_port=22) contains port 22")
	}
	if !s.Contains(notSSH, Header{DstPort: 80}) {
		t.Fatal("¬(dst_port=22) rejects port 80")
	}
}

func TestProtoPredicate(t *testing.T) {
	s := NewSpace()
	tcp := s.ProtoEq(ProtoTCP)
	if !s.Contains(tcp, Header{Proto: ProtoTCP}) || s.Contains(tcp, Header{Proto: ProtoUDP}) {
		t.Fatal("protocol predicate wrong")
	}
}

func TestWitness(t *testing.T) {
	s := NewSpace()
	set := s.T.And(s.DstIPPrefix(MustParseIP("10.0.2.0"), 24), s.DstPortEq(22))
	h, ok := s.Witness(set)
	if !ok {
		t.Fatal("non-empty set has no witness")
	}
	if !s.Contains(set, h) {
		t.Fatalf("witness %v not contained in its set", h)
	}
	if h.DstPort != 22 {
		t.Fatalf("witness dst port = %d, want 22", h.DstPort)
	}
	if h.Proto != ProtoTCP {
		t.Fatalf("unconstrained proto defaulted to %d, want TCP", h.Proto)
	}
	if _, ok := s.Witness(bdd.False); ok {
		t.Fatal("empty set produced a witness")
	}
}

// Property: every witness belongs to the set it was extracted from.
func TestQuickWitnessMembership(t *testing.T) {
	s := NewSpace()
	prop := func(prefix uint32, plenRaw uint8, port uint16) bool {
		plen := int(plenRaw % 33)
		set := s.T.And(s.DstIPPrefix(prefix, plen), s.SrcPortEq(port))
		h, ok := s.Witness(set)
		return ok && s.Contains(set, h)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: prefix membership by BDD agrees with arithmetic membership.
func TestQuickPrefixAgreesWithArithmetic(t *testing.T) {
	s := NewSpace()
	prop := func(prefix, addr uint32, plenRaw uint8) bool {
		plen := int(plenRaw % 33)
		set := s.DstIPPrefix(prefix, plen)
		want := plen == 0 || prefix>>(32-plen) == addr>>(32-plen)
		return s.Contains(set, Header{DstIP: addr}) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWildcardBasics(t *testing.T) {
	s := NewSpace()
	all := MatchAll()
	if !all.Matches(s, Header{}) {
		t.Fatal("MatchAll rejects the zero header")
	}
	if got := len(all.String()); got != NumVars {
		t.Fatalf("wildcard string length %d, want %d", got, NumVars)
	}
	if all.BDD(s) != bdd.True {
		t.Fatal("MatchAll BDD is not True")
	}
}

func TestWildcardIntersect(t *testing.T) {
	s := NewSpace()
	a := MatchAll()
	a[DstIPOffset] = 1
	b := MatchAll()
	b[DstIPOffset] = 0
	if _, ok := a.Intersect(b); ok {
		t.Fatal("conflicting wildcards intersected")
	}
	c := MatchAll()
	c[DstIPOffset+1] = 1
	x, ok := a.Intersect(c)
	if !ok {
		t.Fatal("compatible wildcards failed to intersect")
	}
	if got, want := x.BDD(s), s.T.And(a.BDD(s), c.BDD(s)); got != want {
		t.Fatal("wildcard intersection disagrees with BDD intersection")
	}
}

func TestWildcardSubtract(t *testing.T) {
	s := NewSpace()
	// Subtract dst_port=22 from all-match: should equal ¬(dst_port=22).
	all := MatchAll()
	var ssh Wildcard = MatchAll()
	for i := 0; i < DstPortBits; i++ {
		bit := byte(22 >> (DstPortBits - 1 - i) & 1)
		ssh[DstPortOffset+i] = bit
	}
	pieces := all.Subtract(ssh)
	if len(pieces) != DstPortBits {
		t.Fatalf("subtracting a 16-bit point from all-match produced %d pieces, want %d",
			len(pieces), DstPortBits)
	}
	set := &WildcardSet{Terms: pieces}
	want := s.T.Not(s.DstPortEq(22))
	if got := set.BDD(s); got != want {
		t.Fatal("wildcard subtraction disagrees with BDD complement")
	}
}

// Property: wildcard subtraction agrees with BDD difference.
func TestQuickWildcardSubtractAgreesWithBDD(t *testing.T) {
	s := NewSpace()
	rng := rand.New(rand.NewSource(3))
	randWildcard := func() Wildcard {
		w := MatchAll()
		// Fix a handful of random bits.
		for k := 0; k < 6; k++ {
			w[rng.Intn(NumVars)] = byte(rng.Intn(2))
		}
		return w
	}
	for trial := 0; trial < 100; trial++ {
		a, b := randWildcard(), randWildcard()
		got := (&WildcardSet{Terms: a.Subtract(b)}).BDD(s)
		want := s.T.Diff(a.BDD(s), b.BDD(s))
		if got != want {
			t.Fatalf("trial %d: subtraction mismatch\n a=%s\n b=%s", trial, a, b)
		}
	}
}

// TestWildcardExplosion reproduces the §4.1 motivation: representing
// "dst_port != 22" takes 16 wildcard terms but a compact BDD.
func TestWildcardExplosion(t *testing.T) {
	s := NewSpace()
	ws := &WildcardSet{Terms: []Wildcard{MatchAll()}}
	var ssh Wildcard = MatchAll()
	for i := 0; i < DstPortBits; i++ {
		ssh[DstPortOffset+i] = byte(22 >> (DstPortBits - 1 - i) & 1)
	}
	ws = ws.SubtractWildcard(ssh)
	if ws.Len() != 16 {
		t.Fatalf("dst_port!=22 took %d wildcard terms, paper says 16", ws.Len())
	}
	bddNodes := s.T.NodeCount(s.T.Not(s.DstPortEq(22)))
	if bddNodes >= 32 {
		t.Fatalf("BDD for dst_port!=22 should be small, got %d nodes", bddNodes)
	}
}

// BenchmarkRepresentationWildcardVsBDD is the §4.1 ablation: subtracting k
// point rules from the all-match set grows a wildcard union multiplicatively
// while the BDD stays compact. The custom metrics report the final sizes.
func BenchmarkRepresentationWildcardVsBDD(b *testing.B) {
	s := NewSpace()
	// Scattered service ports (a subcube of ports would cancel the blowup).
	ports := []uint16{22, 80, 443, 3306, 5432, 8080, 27017, 65000}
	var lastWildcards, lastNodes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws := &WildcardSet{Terms: []Wildcard{MatchAll()}}
		set := s.T.Not(bddFalse())
		for _, port := range ports {
			var w Wildcard = MatchAll()
			for bit := 0; bit < DstPortBits; bit++ {
				w[DstPortOffset+bit] = byte(port >> (DstPortBits - 1 - bit) & 1)
			}
			ws = ws.SubtractWildcard(w)
			set = s.T.Diff(set, s.DstPortEq(port))
		}
		lastWildcards = ws.Len()
		lastNodes = s.T.NodeCount(set)
	}
	b.StopTimer()
	b.ReportMetric(float64(lastWildcards), "wildcard-terms")
	b.ReportMetric(float64(lastNodes), "bdd-nodes")
}

func bddFalse() bdd.Ref { return bdd.False }

func BenchmarkHeaderSetSingleton(b *testing.B) {
	s := NewSpace()
	h := Header{SrcIP: 0x0a000101, DstIP: 0x0a000201, Proto: ProtoTCP, SrcPort: 4242, DstPort: 80}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.HeaderSet(h)
	}
}

func BenchmarkContains(b *testing.B) {
	s := NewSpace()
	set := s.T.And(s.DstIPPrefix(0x0a000200, 24), s.T.Not(s.DstPortEq(22)))
	h := Header{SrcIP: 0x0a000101, DstIP: 0x0a000201, Proto: ProtoTCP, SrcPort: 4242, DstPort: 80}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Contains(set, h)
	}
}

package flowtable

import (
	"math/rand"
	"testing"

	"veridp/internal/bdd"
	"veridp/internal/header"
	"veridp/internal/topo"
)

// buildConfig assembles a small config with overlapping priorities, an ACL,
// and a drop rule — enough to exercise every term of the §4.1 equations.
func buildConfig() *SwitchConfig {
	c := NewSwitchConfig([]topo.PortID{1, 2, 3})
	// SSH to 10.0.2/24 goes out port 2 (high priority).
	c.Table.Add(&Rule{Priority: 30, Match: Match{DstPrefix: Prefix{ip("10.0.2.0"), 24}, HasDst: true, DstPort: 22}, Action: ActOutput, OutPort: 2})
	// Everything else to 10.0.2/24 goes out port 3.
	c.Table.Add(&Rule{Priority: 20, Match: Match{DstPrefix: Prefix{ip("10.0.2.0"), 24}}, Action: ActOutput, OutPort: 3})
	// Traffic to 10.0.3/24 is dropped explicitly.
	c.Table.Add(&Rule{Priority: 20, Match: Match{DstPrefix: Prefix{ip("10.0.3.0"), 24}}, Action: ActDrop})
	// In-ACL on port 1: deny UDP.
	c.InACL[1] = ACL{{Match: Match{HasProto: true, Proto: header.ProtoUDP}, Permit: false}}
	// Out-ACL on port 2: deny sources outside 10.0.0.0/8.
	c.OutACL[2] = ACL{{Match: Match{SrcPrefix: Prefix{ip("10.0.0.0"), 8}}, Permit: true}, {Permit: false}}
	return c
}

// simulate mirrors the data-plane pipeline over the config: in-ACL, table
// lookup, out-ACL; returns the effective output port.
func simulate(c *SwitchConfig, inPort topo.PortID, h header.Header) topo.PortID {
	if acl, ok := c.InACL[inPort]; ok && !acl.Allows(h) {
		return topo.DropPort
	}
	r := c.Table.Lookup(inPort, h)
	if r == nil {
		return topo.DropPort
	}
	out := r.EffectiveOut()
	if out == topo.DropPort {
		return topo.DropPort
	}
	known := false
	for _, p := range c.Ports {
		if p == out {
			known = true
		}
	}
	if !known {
		return topo.DropPort
	}
	if acl, ok := c.OutACL[out]; ok && !acl.Allows(h) {
		return topo.DropPort
	}
	return out
}

// transferGuards folds each pair's TransferFuncs entries into one guard:
// for a configuration without rewrites, the §4.1 transfer predicate
// P_{x,y}.
func transferGuards(s *header.Space, c *SwitchConfig) map[PortPair]bdd.Ref {
	out := make(map[PortPair]bdd.Ref)
	for pp, es := range c.TransferFuncs(s) {
		g := bdd.False
		for _, e := range es {
			g = s.T.Or(g, e.Guard)
		}
		out[pp] = g
	}
	return out
}

func TestForwardPredicatesPriority(t *testing.T) {
	s := header.NewSpace()
	c := buildConfig()
	// Port 3 has no in-ACL, and the headers below pass port 2's out-ACL,
	// so P_{3,y} is the forwarding predicate P_y^fwd on them.
	tp := transferGuards(s, c)
	fwd := func(y topo.PortID) bdd.Ref { return tp[PortPair{3, y}] }
	ssh := header.Header{SrcIP: ip("10.1.1.1"), DstIP: ip("10.0.2.9"), Proto: header.ProtoTCP, DstPort: 22}
	web := header.Header{SrcIP: ip("10.1.1.1"), DstIP: ip("10.0.2.9"), Proto: header.ProtoTCP, DstPort: 80}
	if !s.Contains(fwd(2), ssh) {
		t.Fatal("SSH should forward to port 2")
	}
	if s.Contains(fwd(3), ssh) {
		t.Fatal("high-priority SSH leaked into the low-priority port")
	}
	if !s.Contains(fwd(3), web) {
		t.Fatal("web should forward to port 3")
	}
	dropped := header.Header{DstIP: ip("10.0.3.9")}
	if !s.Contains(fwd(topo.DropPort), dropped) {
		t.Fatal("explicit drop rule missing from ⊥ predicate")
	}
	unmatched := header.Header{DstIP: ip("99.0.0.1")}
	if !s.Contains(fwd(topo.DropPort), unmatched) {
		t.Fatal("unmatched traffic missing from ⊥ predicate")
	}
}

// TestForwardPredicatesPartition: for every input port, the transfer
// predicates (including ⊥) partition the header space.
func TestForwardPredicatesPartition(t *testing.T) {
	s := header.NewSpace()
	c := buildConfig()
	tp := transferGuards(s, c)
	ports := append([]topo.PortID{topo.DropPort}, c.Ports...)
	for _, x := range c.Ports {
		union := bdd.False
		for i, a := range ports {
			union = s.T.Or(union, tp[PortPair{x, a}])
			for _, b := range ports[i+1:] {
				if s.T.And(tp[PortPair{x, a}], tp[PortPair{x, b}]) != bdd.False {
					t.Fatalf("transfer predicates for %s→%s and %s→%s overlap", x, a, x, b)
				}
			}
		}
		if union != bdd.True {
			t.Fatalf("transfer predicates from port %s do not cover the header space", x)
		}
	}
}

func TestTransferPredicatesACLTerms(t *testing.T) {
	s := header.NewSpace()
	c := buildConfig()
	tp := transferGuards(s, c)

	// UDP arriving on port 1 is dropped by the in-ACL.
	udp := header.Header{SrcIP: ip("10.1.1.1"), DstIP: ip("10.0.2.9"), Proto: header.ProtoUDP, DstPort: 22}
	if !s.Contains(tp[PortPair{1, topo.DropPort}], udp) {
		t.Fatal("in-ACL drop missing from P_{1,⊥}")
	}
	if s.Contains(tp[PortPair{1, 2}], udp) {
		t.Fatal("in-ACL-filtered packet appears in a forwarding predicate")
	}
	// Same UDP on port 2 (no in-ACL) forwards normally.
	if !s.Contains(tp[PortPair{2, 2}], udp) {
		t.Fatal("UDP on un-ACLed port should forward")
	}
	// SSH from outside 10/8 is blocked by port 2's out-ACL.
	ext := header.Header{SrcIP: ip("99.1.1.1"), DstIP: ip("10.0.2.9"), Proto: header.ProtoTCP, DstPort: 22}
	if !s.Contains(tp[PortPair{3, topo.DropPort}], ext) {
		t.Fatal("out-ACL drop missing from P_{3,⊥}")
	}
	if s.Contains(tp[PortPair{3, 2}], ext) {
		t.Fatal("out-ACL-filtered packet appears in P_{3,2}")
	}
}

// TestTransferAgreesWithSimulation: for random headers, the transfer
// predicates classify exactly as the operational pipeline does — the
// invariant that makes verification free of false positives (§6.3).
func TestTransferAgreesWithSimulation(t *testing.T) {
	s := header.NewSpace()
	c := buildConfig()
	tp := transferGuards(s, c)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		h := header.Header{
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			Proto: uint8(rng.Intn(256)), SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
		}
		// Steer half the samples into the configured prefixes.
		switch rng.Intn(4) {
		case 0:
			h.DstIP = ip("10.0.2.0") | rng.Uint32()&0xff
			if rng.Intn(2) == 0 {
				h.DstPort = 22
			}
		case 1:
			h.DstIP = ip("10.0.3.0") | rng.Uint32()&0xff
		}
		if rng.Intn(2) == 0 {
			h.SrcIP = ip("10.0.0.0") | rng.Uint32()&0xffffff
		}
		if rng.Intn(3) == 0 {
			h.Proto = header.ProtoUDP
		}
		inPort := topo.PortID(rng.Intn(3) + 1)
		want := simulate(c, inPort, h)
		hits := 0
		var got topo.PortID
		for _, y := range []topo.PortID{1, 2, 3, topo.DropPort} {
			if s.Contains(tp[PortPair{inPort, y}], h) {
				hits++
				got = y
			}
		}
		if hits != 1 {
			t.Fatalf("trial %d: header in %d transfer predicates, want exactly 1", trial, hits)
		}
		if got != want {
			t.Fatalf("trial %d: predicates route %v to %s, pipeline routes to %s (h=%v in=%d)",
				trial, h, got, want, h, inPort)
		}
	}
}

func TestTransferPerInputPortRules(t *testing.T) {
	s := header.NewSpace()
	c := NewSwitchConfig([]topo.PortID{1, 2, 3})
	// Port-1 traffic detours to port 3 (Figure 5's Rule 5 pattern).
	c.Table.Add(&Rule{Priority: 10, Match: Match{InPort: 1}, Action: ActOutput, OutPort: 3})
	c.Table.Add(&Rule{Priority: 5, Action: ActOutput, OutPort: 2})
	tp := transferGuards(s, c)
	h := header.Header{DstIP: ip("10.0.0.1")}
	if !s.Contains(tp[PortPair{1, 3}], h) {
		t.Fatal("in-port rule should send port-1 traffic to 3")
	}
	if s.Contains(tp[PortPair{1, 2}], h) {
		t.Fatal("port-1 traffic leaked to the default rule")
	}
	if !s.Contains(tp[PortPair{2, 2}], h) {
		t.Fatal("port-2 traffic should use the default rule")
	}
}

// TestQuickTransferFuncsAgreeWithForward is the master agreement property:
// for random configurations mixing priorities, in-port matches, ACLs, and
// rewrites, the guarded transfer functions classify every random header to
// exactly the port-and-image that operational forwarding produces.
func TestQuickTransferFuncsAgreeWithForward(t *testing.T) {
	s := header.NewSpace()
	rng := rand.New(rand.NewSource(2024))

	randConfig := func() *SwitchConfig {
		c := NewSwitchConfig([]topo.PortID{1, 2, 3})
		nRules := 3 + rng.Intn(6)
		for i := 0; i < nRules; i++ {
			r := Rule{Priority: uint16(rng.Intn(50))}
			if rng.Intn(2) == 0 {
				r.Match.DstPrefix = Prefix{IP: uint32(10)<<24 | rng.Uint32()&0x00ffff00, Len: 16 + rng.Intn(9)}.Canonical()
			}
			if rng.Intn(4) == 0 {
				r.Match.InPort = topo.PortID(rng.Intn(3) + 1)
			}
			if rng.Intn(4) == 0 {
				r.Match.HasDst, r.Match.DstPort = true, uint16(rng.Intn(1024))
			}
			if rng.Intn(6) == 0 {
				r.Action = ActDrop
			} else {
				r.Action = ActOutput
				r.OutPort = topo.PortID(rng.Intn(3) + 1)
				if rng.Intn(4) == 0 {
					r.Rewrite = &header.Rewrite{SetDstIP: true, DstIP: uint32(192)<<24 | rng.Uint32()&0xffffff}
				}
			}
			c.Table.Add(&r)
		}
		if rng.Intn(2) == 0 {
			c.InACL[1] = ACL{{Match: Match{HasProto: true, Proto: header.ProtoUDP}, Permit: false}}
		}
		if rng.Intn(2) == 0 {
			c.OutACL[2] = ACL{{Match: Match{DstPrefix: Prefix{IP: uint32(192) << 24, Len: 8}}, Permit: false}}
		}
		return c
	}

	for trial := 0; trial < 40; trial++ {
		c := randConfig()
		tf := c.TransferFuncs(s)
		for probe := 0; probe < 100; probe++ {
			h := header.Header{
				SrcIP:   rng.Uint32(),
				DstIP:   uint32(10)<<24 | rng.Uint32()&0xffffff,
				Proto:   []uint8{header.ProtoTCP, header.ProtoUDP}[rng.Intn(2)],
				DstPort: uint16(rng.Intn(2048)),
			}
			in := topo.PortID(rng.Intn(3) + 1)
			wantOut, wantRW := c.Forward(in, h)

			// The header must fall in exactly one guard across the input
			// port's pairs, and that guard must agree on port and rewrite.
			hits := 0
			for _, y := range []topo.PortID{1, 2, 3, topo.DropPort} {
				for _, te := range tf[PortPair{In: in, Out: y}] {
					if !s.Contains(te.Guard, h) {
						continue
					}
					hits++
					if y != wantOut {
						t.Fatalf("trial %d: guards route %v to %s, Forward says %s", trial, h, y, wantOut)
					}
					if !te.Rewrite.Equal(wantRW) {
						t.Fatalf("trial %d: rewrite mismatch: %v vs %v", trial, te.Rewrite, wantRW)
					}
					// The image contains the rewritten header.
					img := s.Transform(s.HeaderSet(h), te.Rewrite)
					if !s.Contains(img, wantRW.Apply(h)) {
						t.Fatalf("trial %d: image misses the forwarded header", trial)
					}
				}
			}
			if hits != 1 {
				t.Fatalf("trial %d: header in %d guards, want exactly 1 (in=%d h=%v)", trial, hits, in, h)
			}
		}
	}
}

func TestRuleToNonexistentPortDrops(t *testing.T) {
	s := header.NewSpace()
	c := NewSwitchConfig([]topo.PortID{1, 2})
	c.Table.Add(&Rule{Priority: 5, Action: ActOutput, OutPort: 9})
	if transferGuards(s, c)[PortPair{1, topo.DropPort}] != bdd.True {
		t.Fatal("rule to a nonexistent port should drop everything")
	}
}

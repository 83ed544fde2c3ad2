package core

import (
	"fmt"
	"testing"

	"veridp/internal/bdd"
	"veridp/internal/bloom"
	"veridp/internal/dataplane"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/topo"
)

// natSetup builds a 3-switch chain where the last switch NATs a virtual IP
// onto the real server: client — s1 — s2 — s3 — server, with
// dst 203.0.113.80:80 rewritten to the server's address at s3.
func natSetup(t *testing.T) (*dataplane.Fabric, *PathTable, *topo.Network, uint64, header.Header) {
	t.Helper()
	n := topo.Linear(3, 1)
	f := dataplane.NewFabric(n)
	cfgs := make(map[topo.SwitchID]*flowtable.SwitchConfig)
	vip := header.MustParseIP("203.0.113.80")
	server := n.Host("h3-0")

	install := func(sw topo.SwitchID, r flowtable.Rule) uint64 {
		id, err := f.Switch(sw).Config.Table.Add(&r)
		if err != nil {
			t.Fatal(err)
		}
		logical := r
		logical.ID = id
		if _, err := cfgs[sw].Table.Add(&logical); err != nil {
			t.Fatal(err)
		}
		return id
	}
	for _, sw := range n.Switches() {
		cfgs[sw.ID] = flowtable.NewSwitchConfig(sw.Ports())
	}
	s1 := n.SwitchByName("s1").ID
	s2 := n.SwitchByName("s2").ID
	s3 := n.SwitchByName("s3").ID
	vipPrefix := flowtable.Prefix{IP: vip, Len: 32}
	install(s1, flowtable.Rule{Priority: 10, Match: flowtable.Match{DstPrefix: vipPrefix}, Action: flowtable.ActOutput, OutPort: 2})
	install(s2, flowtable.Rule{Priority: 10, Match: flowtable.Match{DstPrefix: vipPrefix}, Action: flowtable.ActOutput, OutPort: 2})
	natID := install(s3, flowtable.Rule{
		Priority: 10,
		Match:    flowtable.Match{DstPrefix: vipPrefix},
		Action:   flowtable.ActOutput,
		OutPort:  server.Attach.Port,
		Rewrite:  &header.Rewrite{SetDstIP: true, DstIP: server.IP},
	})

	pt := (&Builder{Net: n, Space: header.NewSpace(), Params: bloom.DefaultParams, Configs: cfgs}).Build()
	client := header.Header{
		SrcIP: n.Host("h1-0").IP, DstIP: vip,
		Proto: header.ProtoTCP, SrcPort: 43210, DstPort: 80,
	}
	return f, pt, n, natID, client
}

func TestNATPathTableContainsImage(t *testing.T) {
	_, pt, n, _, client := natSetup(t)
	in := n.Host("h1-0").Attach
	out := n.Host("h3-0").Attach
	entries := pt.Lookup(in, out)
	if len(entries) == 0 {
		t.Fatal("no path through the NAT")
	}
	rewritten := client
	rewritten.DstIP = n.Host("h3-0").IP
	foundImage := false
	for _, e := range entries {
		if pt.Space.Contains(e.Headers, rewritten) {
			foundImage = true
		}
		if pt.Space.Contains(e.Headers, client) {
			t.Fatal("path table entry still contains the pre-NAT header")
		}
	}
	if !foundImage {
		t.Fatal("rewritten header missing from the exit header set")
	}
}

func TestNATVerifiesEndToEnd(t *testing.T) {
	f, pt, n, _, client := natSetup(t)
	res, err := f.InjectFromHost("h1-0", client)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != dataplane.OutcomeDelivered || res.Exit != n.Host("h3-0").Attach {
		t.Fatalf("NAT flow not delivered: %v at %v", res.Outcome, res.Exit)
	}
	rep := res.Reports[0]
	if rep.Header.DstIP != n.Host("h3-0").IP {
		t.Fatalf("report carries pre-NAT destination %v", rep.Header)
	}
	if v := pt.Verify(rep); !v.OK {
		t.Fatalf("consistent NAT failed verification: %v", v.Reason)
	}
}

func TestNATFaultsDetected(t *testing.T) {
	// Fault 1: the NAT rewrite silently disappears (rule degraded to plain
	// forwarding). The packet reaches the server port still addressed to
	// the VIP — a header the path table's exit set cannot contain.
	f, pt, n, natID, client := natSetup(t)
	s3 := n.SwitchByName("s3").ID
	if err := f.Switch(s3).Config.Table.Modify(natID, func(r *flowtable.Rule) { r.Rewrite = nil }); err != nil {
		t.Fatal(err)
	}
	res, err := f.InjectFromHost("h1-0", client)
	if err != nil {
		t.Fatal(err)
	}
	if v := pt.Verify(res.Reports[0]); v.OK {
		t.Fatal("lost NAT rewrite escaped verification")
	}

	// Fault 2: the NAT rewrites to the wrong backend.
	f2, pt2, n2, natID2, client2 := natSetup(t)
	s3b := n2.SwitchByName("s3").ID
	wrong := header.MustParseIP("10.99.99.99")
	if err := f2.Switch(s3b).Config.Table.Modify(natID2, func(r *flowtable.Rule) {
		r.Rewrite = &header.Rewrite{SetDstIP: true, DstIP: wrong}
	}); err != nil {
		t.Fatal(err)
	}
	res2, err := f2.InjectFromHost("h1-0", client2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Reports) == 0 {
		t.Fatal("no report")
	}
	if v := pt2.Verify(res2.Reports[0]); v.OK {
		t.Fatal("wrong-backend rewrite escaped verification")
	}
}

// TestRewriteTransferEntriesDisjoint: a switch mixing rewriting and plain
// rules produces disjoint guards per pair, and traversal covers both.
func TestRewriteTransferEntriesDisjoint(t *testing.T) {
	s := header.NewSpace()
	cfg := flowtable.NewSwitchConfig([]topo.PortID{1, 2})
	vip := header.MustParseIP("203.0.113.80")
	cfg.Table.Add(&flowtable.Rule{
		Priority: 20,
		Match:    flowtable.Match{DstPrefix: flowtable.Prefix{IP: vip, Len: 32}},
		Action:   flowtable.ActOutput, OutPort: 2,
		Rewrite: &header.Rewrite{SetDstIP: true, DstIP: header.MustParseIP("10.0.0.9")},
	})
	cfg.Table.Add(&flowtable.Rule{Priority: 10, Action: flowtable.ActOutput, OutPort: 2})
	tf := cfg.TransferFuncs(s)
	entries := tf[flowtable.PortPair{In: 1, Out: 2}]
	if len(entries) != 2 {
		t.Fatalf("expected 2 transfer entries (rewrite + plain), got %d", len(entries))
	}
	if s.T.And(entries[0].Guard, entries[1].Guard) != bdd.False {
		t.Fatal("guards overlap")
	}
	union := s.T.Or(entries[0].Guard, entries[1].Guard)
	if union != s.All() {
		t.Fatal("guards should cover everything (no drops configured)")
	}
}

// TestApplyDeltaRejectsRewritingPairs: the §4.4 incremental path refuses to
// patch transfer pairs that carry rewrites.
func TestApplyDeltaRejectsRewritingPairs(t *testing.T) {
	f, pt, n, _, _ := natSetup(t)
	_ = f
	s3 := n.SwitchByName("s3").ID
	tree := flowtable.NewPrefixTree(pt.Space, n.SwitchByName("s3").Ports())
	delta, err := tree.Insert(1, flowtable.Prefix{IP: header.MustParseIP("203.0.113.80"), Len: 32}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Force the delta onto the NAT's pair: From must collide with a
	// rewrite-carrying pair. The NAT pair is (in, out=host port 3).
	delta.From = 3
	delta.To = 2
	if err := pt.ApplyDelta(s3, delta); err == nil {
		t.Fatal("incremental update on a rewriting pair accepted")
	}
}

// TestRejectedDeltaChangesNothing: a delta that reaches a rewriting pair
// is refused before any transfer guard is patched, and the Handle
// publishes nothing — no half-applied table, no epoch bump. The delta
// moves headers from ⊥, whose pairs are plain at every input port, onto
// the NAT's output port, whose pairs carry only the rewrite: a per-port
// patch loop would subtract from ⟨1,⊥⟩ before failing on ⟨1,3⟩.
func TestRejectedDeltaChangesNothing(t *testing.T) {
	_, pt, n, _, _ := natSetup(t)
	s3 := n.SwitchByName("s3").ID
	guards := func() map[flowtable.PortPair][]bdd.Ref {
		out := make(map[flowtable.PortPair][]bdd.Ref)
		for pp, es := range pt.transfer[s3] {
			for _, e := range es {
				out[pp] = append(out[pp], e.Guard)
			}
		}
		return out
	}
	before := guards()
	h := NewHandle(pt)
	snap := h.Current()
	epochs := snap.epochs

	delta := flowtable.Delta{Set: pt.Space.DstIPPrefix(header.MustParseIP("198.51.100.0"), 24), From: topo.DropPort, To: 3}
	if err := h.ApplyDelta(s3, delta); err == nil {
		t.Fatal("delta onto a rewriting pair accepted")
	}
	if h.Current() != snap {
		t.Fatal("a rejected delta published a snapshot")
	}
	if snap.epochs != epochs {
		t.Fatal("a rejected delta changed the published epochs")
	}
	after := guards()
	if len(after) != len(before) {
		t.Fatalf("transfer pairs %d → %d", len(before), len(after))
	}
	for pp, gs := range before {
		if fmt.Sprint(after[pp]) != fmt.Sprint(gs) {
			t.Fatalf("pair %v guards %v → %v", pp, gs, after[pp])
		}
	}
}

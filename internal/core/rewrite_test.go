package core

import (
	"fmt"
	"strings"
	"testing"

	"veridp/internal/bdd"
	"veridp/internal/bloom"
	"veridp/internal/dataplane"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/openflow"
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

// TestApplyFlowModRerunsUnderRewrites: while any rule rewrites headers,
// every FlowMod re-runs Algorithm 2, whichever switch it edits; deleting
// the last rewriting rule re-runs once more, and FlowMods after it take
// their deltas again. The table matches a from-scratch build throughout.
func TestApplyFlowModRerunsUnderRewrites(t *testing.T) {
	_, pt, n, natID, _ := natSetup(t)
	s1 := n.SwitchByName("s1").ID
	s3 := n.SwitchByName("s3").ID
	// This table's header space is a few hundred nodes, so one re-run
	// could double it and count as a rebuild instead. Unrelated /32s
	// grow it first, so the counts below show each FlowMod's own path.
	for i := uint32(0); i < 64; i++ {
		pt.Space.DstIPPrefix(i<<24|i, 32)
	}
	h := NewHandle(pt)
	web := flowtable.Rule{
		Priority: 20,
		Match:    flowtable.Match{DstPrefix: flowtable.Prefix{IP: header.MustParseIP("203.0.113.80"), Len: 32}, HasDst: true, DstPort: 443},
		Action:   flowtable.ActDrop,
	}
	for _, step := range []struct {
		name string
		f    openflow.FlowMod
		want FlowModPaths
	}{
		{"a drop beside the NAT", openflow.FlowMod{Command: openflow.FlowAdd, Switch: s1, RuleID: 1 << 40, Rule: web}, FlowModPaths{Rerun: 1}},
		{"the NAT's delete", openflow.FlowMod{Command: openflow.FlowDelete, Switch: s3, RuleID: natID}, FlowModPaths{Rerun: 2}},
		{"the drop's delete", openflow.FlowMod{Command: openflow.FlowDelete, Switch: s1, RuleID: 1 << 40}, FlowModPaths{Delta: 1, Rerun: 2}},
	} {
		if err := h.ApplyFlowMod(step.f.Switch, &step.f); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if got := h.FlowModPaths(); got != step.want {
			t.Fatalf("%s: paths %+v, want %+v", step.name, got, step.want)
		}
		h.Inspect(func(pt *PathTable) {
			want := (&Builder{Net: pt.Net, Space: pt.Space, Params: pt.Params, Configs: pt.Configs}).Build()
			if err := h.Current().Diff(want); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
		})
	}
}

// TestRejectedFlowModChangesNothing: a FlowMod the logical table rejects
// changes no transfer guard, publishes nothing and moves no epoch, on the
// difference path — which scans the switch's rules before it tries the
// edit — and on the re-run path a rewriting rule forces.
func TestRejectedFlowModChangesNothing(t *testing.T) {
	_, pt, n, natID, _ := natSetup(t)
	s3 := n.SwitchByName("s3").ID
	guards := func() string {
		var b strings.Builder
		for _, sw := range n.Switches() {
			for _, x := range sw.Ports() {
				for _, y := range append(sw.Ports(), topo.DropPort) {
					fmt.Fprintln(&b, sw.ID, x, y, pt.transfer[sw.ID][flowtable.PortPair{In: x, Out: y}])
				}
			}
		}
		return b.String()
	}
	h := NewHandle(pt)
	drop := flowtable.Rule{Priority: 30, Match: flowtable.Match{DstPrefix: flowtable.Prefix{IP: header.MustParseIP("198.51.100.0"), Len: 24}}, Action: flowtable.ActDrop}
	for _, step := range []struct {
		name string
		f    openflow.FlowMod
	}{
		{"re-run path: modify of an unknown rule", openflow.FlowMod{Command: openflow.FlowModify, Switch: s3, RuleID: 77, Rule: drop}},
		{"re-run path: duplicate add", openflow.FlowMod{Command: openflow.FlowAdd, Switch: s3, RuleID: natID, Rule: drop}},
		{"the NAT's delete", openflow.FlowMod{Command: openflow.FlowDelete, Switch: s3, RuleID: natID}},
		{"difference path: modify of an unknown rule", openflow.FlowMod{Command: openflow.FlowModify, Switch: s3, RuleID: 77, Rule: drop}},
		{"difference path: delete of an unknown rule", openflow.FlowMod{Command: openflow.FlowDelete, Switch: s3, RuleID: natID}},
		{"difference path: add without a rule ID", openflow.FlowMod{Command: openflow.FlowAdd, Switch: s3, Rule: drop}},
	} {
		snap, before := h.Current(), guards()
		err := h.ApplyFlowMod(s3, &step.f)
		if step.name == "the NAT's delete" {
			if err != nil {
				t.Fatal(err)
			}
			pt = h.Table()
			continue
		}
		if err == nil {
			t.Fatalf("%s: accepted", step.name)
		}
		if h.Current() != snap || h.Current().epochs != snap.epochs {
			t.Fatalf("%s: published a snapshot", step.name)
		}
		if after := guards(); after != before {
			t.Fatalf("%s: transfer guards changed:\n%s\n→\n%s", step.name, before, after)
		}
	}
}

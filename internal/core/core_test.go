package core

import (
	"fmt"
	"math/rand"
	"testing"

	"veridp/internal/bdd"
	"veridp/internal/bloom"
	"veridp/internal/controller"
	"veridp/internal/dataplane"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/openflow"
	"veridp/internal/packet"
	"veridp/internal/topo"
)

func ip(s string) uint32 { return header.MustParseIP(s) }

// figure5Rules installs the paper's Figure 5 rule set through a controller
// (so logical and physical configurations start identical) and returns the
// fabric, controller, and the rule IDs of interest.
func figure5Rules(t *testing.T, n *topo.Network) (*dataplane.Fabric, *controller.Controller, map[string]uint64) {
	t.Helper()
	f := dataplane.NewFabric(n)
	c := controller.New(n, &dataplane.FabricInstaller{Fabric: f})
	s1 := n.SwitchByName("S1").ID
	s2 := n.SwitchByName("S2").ID
	s3 := n.SwitchByName("S3").ID
	ids := map[string]uint64{}
	add := func(name string, sw topo.SwitchID, r flowtable.Rule) {
		id, err := c.InstallRule(sw, r)
		if err != nil {
			t.Fatalf("installing %s: %v", name, err)
		}
		ids[name] = id
	}
	// S1: local delivery, SSH redirect (rule 3), default toward S3 (rule 4).
	add("s1-h1", s1, flowtable.Rule{Priority: 30, Match: flowtable.Match{DstPrefix: flowtable.Prefix{IP: ip("10.0.1.1"), Len: 32}}, Action: flowtable.ActOutput, OutPort: 1})
	add("s1-h2", s1, flowtable.Rule{Priority: 30, Match: flowtable.Match{DstPrefix: flowtable.Prefix{IP: ip("10.0.1.2"), Len: 32}}, Action: flowtable.ActOutput, OutPort: 2})
	add("r3", s1, flowtable.Rule{Priority: 20, Match: flowtable.Match{DstPrefix: flowtable.Prefix{IP: ip("10.0.2.0"), Len: 24}, HasDst: true, DstPort: 22}, Action: flowtable.ActOutput, OutPort: 3})
	add("r4", s1, flowtable.Rule{Priority: 10, Match: flowtable.Match{DstPrefix: flowtable.Prefix{IP: ip("10.0.2.0"), Len: 24}}, Action: flowtable.ActOutput, OutPort: 4})
	// S2: port-1 traffic to the middlebox (rule 5), returns continue to S3
	// (rule 6).
	add("r5", s2, flowtable.Rule{Priority: 10, Match: flowtable.Match{InPort: 1}, Action: flowtable.ActOutput, OutPort: 3})
	add("r6", s2, flowtable.Rule{Priority: 10, Match: flowtable.Match{InPort: 3}, Action: flowtable.ActOutput, OutPort: 2})
	// S3: drop H2's traffic (rule 8), deliver to H3, route back to S1.
	add("r8", s3, flowtable.Rule{Priority: 30, Match: flowtable.Match{SrcPrefix: flowtable.Prefix{IP: ip("10.0.1.2"), Len: 32}}, Action: flowtable.ActDrop})
	add("s3-h3", s3, flowtable.Rule{Priority: 20, Match: flowtable.Match{DstPrefix: flowtable.Prefix{IP: ip("10.0.2.0"), Len: 24}}, Action: flowtable.ActOutput, OutPort: 2})
	add("s3-back", s3, flowtable.Rule{Priority: 10, Match: flowtable.Match{DstPrefix: flowtable.Prefix{IP: ip("10.0.1.0"), Len: 24}}, Action: flowtable.ActOutput, OutPort: 3})
	return f, c, ids
}

// buildTable constructs the path table from the controller's logical view.
func buildTable(n *topo.Network, c *controller.Controller) *PathTable {
	b := &Builder{
		Net:     n,
		Space:   header.NewSpace(),
		Params:  bloom.DefaultParams,
		Configs: c.Logical(),
	}
	return b.Build()
}

func TestBuildFigure5Table1(t *testing.T) {
	n := topo.Figure5()
	_, c, _ := figure5Rules(t, n)
	pt := buildTable(n, c)

	s1 := n.SwitchByName("S1").ID
	s2 := n.SwitchByName("S2").ID
	s3 := n.SwitchByName("S3").ID
	in := topo.PortKey{Switch: s1, Port: 1}
	out := topo.PortKey{Switch: s3, Port: 2}

	entries := pt.Lookup(in, out)
	if len(entries) != 2 {
		t.Fatalf("pair (⟨S1,1⟩,⟨S3,2⟩) has %d paths, Table 1 shows 2: %v", len(entries), entries)
	}
	// Identify the SSH-via-middlebox path (4 hops) and the direct path (2).
	var mb, direct *PathEntry
	for _, e := range entries {
		switch len(e.Path) {
		case 4:
			mb = e
		case 2:
			direct = e
		}
	}
	if mb == nil || direct == nil {
		t.Fatalf("expected a 4-hop and a 2-hop path, got %v", entries)
	}
	wantMB := topo.Path{{In: 1, Switch: s1, Out: 3}, {In: 1, Switch: s2, Out: 3}, {In: 3, Switch: s2, Out: 2}, {In: 1, Switch: s3, Out: 2}}
	for i := range wantMB {
		if mb.Path[i] != wantMB[i] {
			t.Fatalf("middlebox path %v, want %v", mb.Path, wantMB)
		}
	}
	// Table 1 header sets: SSH in the middlebox path, non-SSH in the direct.
	ssh := header.Header{SrcIP: ip("10.0.1.1"), DstIP: ip("10.0.2.1"), Proto: header.ProtoTCP, DstPort: 22}
	web := ssh
	web.DstPort = 80
	if !pt.Space.Contains(mb.Headers, ssh) || pt.Space.Contains(mb.Headers, web) {
		t.Fatal("middlebox path headers wrong")
	}
	if !pt.Space.Contains(direct.Headers, web) || pt.Space.Contains(direct.Headers, ssh) {
		t.Fatal("direct path headers wrong")
	}
	// Tags are the Bloom folds of the hops.
	var tag bloom.Tag
	for _, hop := range wantMB {
		tag = tag.Union(pt.Params.Hash(hop.Bytes()))
	}
	if mb.Tag != tag {
		t.Fatalf("middlebox tag %v, want %v", mb.Tag, tag)
	}
	// Table 1 row 3: H2's traffic is dropped at S3.
	dropKey := topo.PortKey{Switch: s3, Port: topo.DropPort}
	h2in := topo.PortKey{Switch: s1, Port: 2}
	dropped := pt.Lookup(h2in, dropKey)
	if len(dropped) == 0 {
		t.Fatal("no drop path for H2's traffic")
	}
	h2pkt := header.Header{SrcIP: ip("10.0.1.2"), DstIP: ip("10.0.2.1"), Proto: header.ProtoTCP, DstPort: 80}
	found := false
	for _, e := range dropped {
		if pt.Space.Contains(e.Headers, h2pkt) {
			found = true
		}
	}
	if !found {
		t.Fatal("H2's packet not in any drop path")
	}
}

// TestNoFalsePositives is the core §6.3 claim: when the data plane matches
// the control plane, every report verifies.
func TestNoFalsePositives(t *testing.T) {
	n := topo.Figure5()
	f, c, _ := figure5Rules(t, n)
	pt := buildTable(n, c)
	rng := rand.New(rand.NewSource(5))

	hosts := []string{"H1", "H2", "H3"}
	ipOf := map[string]uint32{"H1": ip("10.0.1.1"), "H2": ip("10.0.1.2"), "H3": ip("10.0.2.1")}
	for trial := 0; trial < 300; trial++ {
		src := hosts[rng.Intn(3)]
		dst := hosts[rng.Intn(3)]
		if src == dst {
			continue
		}
		h := header.Header{
			SrcIP: ipOf[src], DstIP: ipOf[dst], Proto: header.ProtoTCP,
			SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(1024)),
		}
		res, err := f.InjectFromHost(src, h)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Reports {
			if v := pt.Verify(r); !v.OK {
				t.Fatalf("consistent network failed verification: %v → %v (%v), report %v, path %v",
					src, dst, v.Reason, r, res.Path)
			}
		}
	}
}

func TestDetectsWrongPort(t *testing.T) {
	// Fault: S1's SSH redirect (rule 3) misforwards out port 4 (the direct
	// link) instead of port 3 — the paper's "path deviation" case.
	n := topo.Figure5()
	f, c, ids := figure5Rules(t, n)
	pt := buildTable(n, c)

	s1 := n.SwitchByName("S1").ID
	if err := f.Switch(s1).Config.Table.Modify(ids["r3"], func(r *flowtable.Rule) { r.OutPort = 4 }); err != nil {
		t.Fatal(err)
	}
	ssh := header.Header{SrcIP: ip("10.0.1.1"), DstIP: ip("10.0.2.1"), Proto: header.ProtoTCP, DstPort: 22}
	res, err := f.InjectFromHost("H1", ssh)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != dataplane.OutcomeDelivered {
		t.Fatalf("outcome %v", res.Outcome)
	}
	v := pt.Verify(res.Reports[0])
	if v.OK {
		t.Fatal("wrong-port fault escaped verification")
	}
	if v.Reason != FailTagMismatch {
		t.Fatalf("reason = %v, want tag mismatch", v.Reason)
	}

	// Localization: PathInfer must recover the actual path and blame S1.
	sw, candidates, ok := pt.Localize(res.Reports[0])
	if !ok {
		t.Fatal("localization found no candidate path")
	}
	if sw != s1 {
		t.Fatalf("blamed switch %d, want S1=%d (candidates %v)", sw, s1, candidates)
	}
	foundReal := false
	for _, cand := range candidates {
		if samePath(cand, res.Path) {
			foundReal = true
		}
	}
	if !foundReal {
		t.Fatalf("real path %v not among candidates %v", res.Path, candidates)
	}
}

func TestDetectsBlackhole(t *testing.T) {
	// Fault: rule 4 at S1 turns into a drop — the §6.2 black-hole case.
	n := topo.Figure5()
	f, c, ids := figure5Rules(t, n)
	pt := buildTable(n, c)

	s1 := n.SwitchByName("S1").ID
	if err := f.Switch(s1).Config.Table.Modify(ids["r4"], func(r *flowtable.Rule) { r.Action = flowtable.ActDrop }); err != nil {
		t.Fatal(err)
	}
	web := header.Header{SrcIP: ip("10.0.1.1"), DstIP: ip("10.0.2.1"), Proto: header.ProtoTCP, DstPort: 80}
	res, err := f.InjectFromHost("H1", web)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != dataplane.OutcomeDropped {
		t.Fatalf("outcome %v", res.Outcome)
	}
	v := pt.Verify(res.Reports[0])
	if v.OK {
		t.Fatal("black hole escaped verification")
	}
	// The report exits at ⟨S1,⊥⟩, a pair with no legitimate path for this
	// header.
	if v.Reason != FailNoPair && v.Reason != FailNoHeaderMatch {
		t.Fatalf("reason = %v", v.Reason)
	}
}

func TestDetectsACLViolation(t *testing.T) {
	// Fault: S3's deny rule (rule 8) vanishes from the data plane — the
	// §6.2 access-violation case. H2's packets now reach H3.
	n := topo.Figure5()
	f, c, ids := figure5Rules(t, n)
	pt := buildTable(n, c)

	s3 := n.SwitchByName("S3").ID
	if err := f.Switch(s3).Config.Table.Delete(ids["r8"]); err != nil {
		t.Fatal(err)
	}
	h := header.Header{SrcIP: ip("10.0.1.2"), DstIP: ip("10.0.2.1"), Proto: header.ProtoTCP, DstPort: 80}
	res, err := f.InjectFromHost("H2", h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != dataplane.OutcomeDelivered {
		t.Fatalf("outcome %v — the ACL should have been bypassed", res.Outcome)
	}
	v := pt.Verify(res.Reports[0])
	if v.OK {
		t.Fatal("access violation escaped verification")
	}
}

func TestIntendedPathMatchesDataPlane(t *testing.T) {
	// With no faults, IntendedPath must equal the path packets take.
	n := topo.Figure5()
	f, c, _ := figure5Rules(t, n)
	pt := buildTable(n, c)
	for _, tc := range []struct {
		src string
		h   header.Header
	}{
		{"H1", header.Header{SrcIP: ip("10.0.1.1"), DstIP: ip("10.0.2.1"), Proto: 6, DstPort: 22}},
		{"H1", header.Header{SrcIP: ip("10.0.1.1"), DstIP: ip("10.0.2.1"), Proto: 6, DstPort: 80}},
		{"H2", header.Header{SrcIP: ip("10.0.1.2"), DstIP: ip("10.0.2.1"), Proto: 6, DstPort: 80}},
	} {
		res, err := f.InjectFromHost(tc.src, tc.h)
		if err != nil {
			t.Fatal(err)
		}
		intended := pt.IntendedPath(n.Host(tc.src).Attach, tc.h)
		if !samePath(intended, res.Path) {
			t.Fatalf("intended %v != actual %v for %v", intended, res.Path, tc.h)
		}
	}
}

func TestFaultySwitchComparison(t *testing.T) {
	a := topo.Path{{In: 1, Switch: 1, Out: 2}, {In: 1, Switch: 2, Out: 2}, {In: 1, Switch: 4, Out: 3}}
	b := topo.Path{{In: 1, Switch: 1, Out: 4}, {In: 1, Switch: 3, Out: 3}, {In: 1, Switch: 6, Out: topo.DropPort}}
	sw, ok := FaultySwitch(a, b)
	if !ok || sw != 1 {
		t.Fatalf("FaultySwitch = %d, %v; want 1", sw, ok)
	}
	if _, ok := FaultySwitch(a, a); ok {
		t.Fatal("identical paths blamed a switch")
	}
	// Prefix divergence.
	sw, ok = FaultySwitch(a[:2], a)
	if !ok || sw != 4 {
		t.Fatalf("prefix divergence: %d, %v", sw, ok)
	}
}

// TestFigure7Localization reproduces the paper's Figure 7 walk-through: S1
// misforwards to port 4; the packet ends dropped at S6; PathInfer must
// recover the real path S1→S3→S6 and blame S1, not S6.
func TestFigure7Localization(t *testing.T) {
	n := topo.Figure7()
	f := dataplane.NewFabric(n)
	c := controller.New(n, &dataplane.FabricInstaller{Fabric: f})
	if err := c.RouteAllHosts(); err != nil {
		t.Fatal(err)
	}
	pt := buildTable(n, c)

	s1 := n.SwitchByName("S1")
	// Fault: the route toward Dst at S1 goes out port 4 (to S3) instead of
	// port 2 (to S2). S3 and S6 have no rule for Dst → dropped at S3...
	// to match the figure, give S3 a stray rule pushing it to S6.
	dst := n.Host("Dst")
	var routeRule *flowtable.Rule
	for _, r := range f.Switch(s1.ID).Config.Table.Rules() {
		if r.Match.DstPrefix.Matches(dst.IP) && r.Match.DstPrefix.Len == 32 {
			routeRule = r
		}
	}
	if routeRule == nil {
		t.Fatal("no route rule at S1")
	}
	f.Switch(s1.ID).Config.Table.Modify(routeRule.ID, func(r *flowtable.Rule) { r.OutPort = 4 })
	// S3 already routes toward Dst per the controller (via its shortest
	// path). Check where the packet actually goes and that localization
	// recovers it.
	h := header.Header{SrcIP: n.Host("Src").IP, DstIP: dst.IP, Proto: header.ProtoTCP, DstPort: 80}
	res, err := f.InjectFromHost("Src", h)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) == 0 {
		t.Fatalf("no report (outcome %v, path %v)", res.Outcome, res.Path)
	}
	rep := res.Reports[len(res.Reports)-1]
	if v := pt.Verify(rep); v.OK {
		t.Fatal("fault escaped verification")
	}
	sw, candidates, ok := pt.Localize(rep)
	if !ok {
		t.Fatalf("no candidates (real path %v)", res.Path)
	}
	if sw != s1.ID {
		t.Fatalf("blamed %d, want S1=%d; candidates %v, real %v", sw, s1.ID, candidates, res.Path)
	}
}

func TestVerifyUnknownPair(t *testing.T) {
	n := topo.Figure5()
	_, c, _ := figure5Rules(t, n)
	pt := buildTable(n, c)
	r := &packet.Report{
		Inport:  topo.PortKey{Switch: 99, Port: 1},
		Outport: topo.PortKey{Switch: 98, Port: 1},
	}
	if v := pt.Verify(r); v.OK || v.Reason != FailNoPair {
		t.Fatalf("verdict %v", v)
	}
}

func TestStatsOnFatTree(t *testing.T) {
	n := topo.FatTree(4)
	f := dataplane.NewFabric(n)
	c := controller.New(n, &dataplane.FabricInstaller{Fabric: f})
	if err := c.RouteAllHosts(); err != nil {
		t.Fatal(err)
	}
	pt := buildTable(n, c)
	st := pt.Stats()
	if st.Pairs == 0 || st.Paths == 0 {
		t.Fatalf("empty stats: %+v", st)
	}
	// 16 hosts: every ordered pair has a delivery path, plus drop pairs
	// for unroutable traffic.
	if st.Paths < 16*15 {
		t.Fatalf("paths = %d, want ≥ 240", st.Paths)
	}
	if st.AvgPathLength < 1 || st.AvgPathLength > 6 {
		t.Fatalf("avg path length %v out of range", st.AvgPathLength)
	}
	dist := pt.PathsPerPair()
	total := 0
	for _, d := range dist {
		total += d
	}
	if total != st.Paths {
		t.Fatalf("distribution sums to %d, stats say %d", total, st.Paths)
	}
}

// snapshot serializes a path table for structural comparison.
func snapshot(pt *PathTable) map[string]bdd.Ref {
	out := make(map[string]bdd.Ref)
	pt.Entries(func(in, outK topo.PortKey, e *PathEntry) {
		key := fmt.Sprintf("%v|%v|%v|%v", in, outK, e.Path, e.Tag)
		if prev, ok := out[key]; ok {
			out[key] = pt.Space.T.Or(prev, e.Headers)
		} else {
			out[key] = e.Headers
		}
	})
	return out
}

// TestIncrementalMatchesScratch drives random destination-prefix adds and
// deletes at any priority through Handle.ApplyFlowMod and checks the table
// equals a scratch rebuild — the §4.4 correctness claim — with every
// FlowMod taken by its delta or by a rebuild that bounds the header space.
func TestIncrementalMatchesScratch(t *testing.T) {
	n := topo.Linear(4, 2)
	rng := rand.New(rand.NewSource(23))

	// Start from connectivity routes compiled by a controller.
	f := dataplane.NewFabric(n)
	c := controller.New(n, &dataplane.FabricInstaller{Fabric: f})
	if err := c.RouteAllHosts(); err != nil {
		t.Fatal(err)
	}
	h := NewHandle((&Builder{Net: n, Space: header.NewSpace(), Params: bloom.DefaultParams, Configs: c.Logical()}).Build())

	type liveRule struct {
		sw topo.SwitchID
		id uint64
	}
	var liveRules []liveRule
	sws := n.Switches()
	for step, id := 0, uint64(1<<40); step < 60; step, id = step+1, id+1 {
		fm := &openflow.FlowMod{Command: openflow.FlowDelete}
		if len(liveRules) == 0 || rng.Intn(3) != 0 {
			// Add a random prefix rule; the Handle edits the controller's
			// logical table, so scratch rebuilds agree.
			sw := sws[rng.Intn(len(sws))]
			ports := sw.Ports()
			pfx := flowtable.Prefix{IP: uint32(10)<<24 | rng.Uint32()&0x00ffffff, Len: 10 + rng.Intn(20)}.Canonical()
			fm = &openflow.FlowMod{Command: openflow.FlowAdd, Switch: sw.ID, RuleID: id, Rule: flowtable.Rule{
				Priority: uint16(rng.Intn(64)),
				Match:    flowtable.Match{DstPrefix: pfx},
				Action:   flowtable.ActOutput,
				OutPort:  ports[rng.Intn(len(ports))],
			}}
			liveRules = append(liveRules, liveRule{sw.ID, id})
		} else {
			// Remove a random previously-added rule.
			i := rng.Intn(len(liveRules))
			fm.Switch, fm.RuleID = liveRules[i].sw, liveRules[i].id
			liveRules = append(liveRules[:i], liveRules[i+1:]...)
		}
		if err := h.ApplyFlowMod(fm.Switch, fm); err != nil {
			t.Fatal(err)
		}
	}
	if p := h.FlowModPaths(); p.Rerun != 0 {
		t.Fatalf("prefix rules re-ran Algorithm 2: %+v", p)
	}

	h.Compact()
	pt := h.Table()
	fresh := (&Builder{Net: n, Space: pt.Space, Params: pt.Params, Configs: c.Logical()}).Build()
	got, want := snapshot(pt), snapshot(fresh)
	for k, h := range want {
		if got[k] != h {
			t.Fatalf("entry %s: incremental headers %v, scratch %v", k, got[k], h)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("incremental has spurious entry %s", k)
		}
	}
	// The running totals behind Stats followed every shrink, merge and
	// insert to the same place a from-scratch count lands.
	if got, want := pt.Stats(), fresh.Stats(); got != want {
		t.Fatalf("incremental stats %+v, scratch %+v", got, want)
	}
}

package core

import (
	"testing"

	"veridp/internal/bloom"
	"veridp/internal/controller"
	"veridp/internal/dataplane"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/openflow"
	"veridp/internal/topo"
)

// TestApplyFlowModChurnStaysBounded toggles one host route through
// ApplyFlowMod: each add and delete goes by its delta, and the writer's
// garbage — dead traversal arrivals, stale hop-index names, BDD nodes —
// stays bounded however long the churn runs, while the table keeps
// matching a from-scratch build.
func TestApplyFlowModChurnStaysBounded(t *testing.T) {
	d := newDiamondEnv(t)
	h := NewHandle(d.pt)
	add := &openflow.FlowMod{Command: openflow.FlowAdd, Switch: d.s1, RuleID: 1 << 40, Rule: flowtable.Rule{
		Priority: 40, Match: flowtable.Match{DstPrefix: flowtable.Prefix{IP: 0x0a000201, Len: 32}}, Action: flowtable.ActOutput, OutPort: 4,
	}}
	del := &openflow.FlowMod{Command: openflow.FlowDelete, Switch: d.s1, RuleID: add.RuleID}
	toggle := func() {
		t.Helper()
		for _, f := range []*openflow.FlowMod{add, del} {
			if err := h.ApplyFlowMod(d.s1, f); err != nil {
				t.Fatal(err)
			}
		}
	}
	toggle()
	steady := h.work.nArrivals
	for i := 0; i < 200; i++ {
		toggle()
	}
	if h.work.nArrivals > 2*steady {
		t.Fatalf("200 toggles grew the traversal arrivals from %d to %d records", steady, h.work.nArrivals)
	}
	indexed := 0
	for _, ks := range h.work.hopIndex {
		indexed += len(ks)
	}
	if indexed != h.work.nIndexed || indexed > 2*h.work.nHops {
		t.Fatalf("after 200 toggles the hop index names %d pairs (counted %d) for %d live hops", indexed, h.work.nIndexed, h.work.nHops)
	}
	if size := h.work.Space.T.Size(); size >= 2*h.bddBase {
		t.Fatalf("header space at %d nodes, twice the %d of its last build", size, h.bddBase)
	}
	if p := h.FlowModPaths(); p.Rerun != 0 || p.Delta+p.Rebuild != 2*201 {
		t.Fatalf("402 FlowMods took %+v", p)
	}
	h.Inspect(func(pt *PathTable) {
		want := (&Builder{Net: pt.Net, Space: pt.Space, Params: pt.Params, Configs: pt.Configs}).Build()
		if err := h.Current().Diff(want); err != nil {
			t.Fatal(err)
		}
	})
}

// TestApplyFlowModRejectsRuleIDZero: a FlowAdd must name its rule. With ID
// 0 the table would pick an ID that neither the controller nor the switch
// knows, and the monitor would silently fall out of step, so the Handle
// refuses it: an error, no publication, and the configuration unchanged.
func TestApplyFlowModRejectsRuleIDZero(t *testing.T) {
	d := newDiamondEnv(t)
	h := NewHandle(d.pt)
	before := h.Current()
	rules := d.pt.Configs[d.s1].Table.Len()
	add := &openflow.FlowMod{Command: openflow.FlowAdd, Switch: d.s1, Rule: flowtable.Rule{
		Priority: 32, Match: flowtable.Match{DstPrefix: flowtable.Prefix{IP: 0x0a000201, Len: 32}}, Action: flowtable.ActOutput, OutPort: 4,
	}}
	if err := h.ApplyFlowMod(d.s1, add); err == nil {
		t.Fatal("FlowAdd without a rule ID accepted")
	}
	if h.Current() != before {
		t.Fatal("rejected FlowMod published a snapshot")
	}
	if got := d.pt.Configs[d.s1].Table.Len(); got != rules {
		t.Fatalf("rejected FlowMod left S1 with %d rules, want %d", got, rules)
	}
	h.Inspect(func(pt *PathTable) {
		want := (&Builder{Net: pt.Net, Space: pt.Space, Params: pt.Params, Configs: pt.Configs}).Build()
		if err := h.Current().Diff(want); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzApplyFlowModMatchesBuild decodes bytes into FlowAdd, FlowDelete and
// FlowModify steps on a routed FT(4) with an in-ACL on one edge port, and
// after every step the published table must equal Algorithm 2 run from
// scratch over the edited configurations. A step the table rejects (rule
// ID 0, an unknown ID, a duplicate add) must publish nothing. No step
// rewrites headers, so none may re-run Algorithm 2.
//
// Each step is six bytes: command, switch, rule ID (0–7), rule shape and
// output port, address, then prefix length and priority. The shapes are a
// destination prefix, an in-port match, a source prefix, an L4 port, a
// drop and an output to a port the switch lacks.
func FuzzApplyFlowModMatchesBuild(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0x01, 0xf7, 2, 0, 1, 3, 0x09, 0x1f})
	f.Add([]byte{0, 4, 2, 1, 0x05, 0x60, 0, 4, 3, 2, 0x02, 0x48, 1, 4, 2, 0, 0, 0})
	n := topo.FatTree(4)
	ctrl := controller.New(n, &dataplane.FabricInstaller{Fabric: dataplane.NewFabric(n)})
	if err := ctrl.RouteAllHosts(); err != nil {
		f.Fatal(err)
	}
	sws := n.Switches()
	acl := flowtable.ACL{{Match: flowtable.Match{SrcPrefix: flowtable.Prefix{IP: 10<<24 | 1<<16, Len: 16}, HasDst: true, DstPort: 22}}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 6*24 {
			data = data[:6*24]
		}
		configs := make(map[topo.SwitchID]*flowtable.SwitchConfig, len(sws))
		for id, cfg := range ctrl.Logical() {
			configs[id] = cfg.Clone()
		}
		configs[sws[0].ID].InACL[1] = acl
		h := NewHandle((&Builder{Net: n, Space: header.NewSpace(), Params: bloom.DefaultParams, Configs: configs}).Build())
		for step := 0; len(data) >= 6; step, data = step+1, data[6:] {
			sw := sws[int(data[1])%len(sws)]
			pfx := flowtable.Prefix{IP: 10<<24 | uint32(data[4]&3)<<16 | uint32(data[4]>>2&1)<<8 | uint32(data[4]>>3&1+1), Len: 8 + int(data[5]%25)}.Canonical()
			port := topo.PortID(1 + int(data[3]/6)%4)
			r := flowtable.Rule{Priority: uint16(data[5] >> 3), Match: flowtable.Match{DstPrefix: pfx}, Action: flowtable.ActOutput, OutPort: port}
			switch data[3] % 6 {
			case 1:
				r.Match.InPort = topo.PortID(1 + int(data[4]>>4)%4)
			case 2:
				r.Match = flowtable.Match{SrcPrefix: pfx}
			case 3:
				r.Match.HasProto, r.Match.Proto, r.Match.HasDst, r.Match.DstPort = true, header.ProtoTCP, true, 22
			case 4:
				r.Action, r.OutPort = flowtable.ActDrop, 0
			case 5:
				r.OutPort = 9
			}
			fm := &openflow.FlowMod{Command: []openflow.FlowModCommand{openflow.FlowAdd, openflow.FlowDelete, openflow.FlowModify}[data[0]%3],
				Switch: sw.ID, RuleID: uint64(data[2] % 8), Rule: r}
			before := h.Current()
			if err := h.ApplyFlowMod(sw.ID, fm); err != nil {
				if h.Current() != before {
					t.Fatalf("step %d: rejected %v of rule %d published a snapshot", step, fm.Command, fm.RuleID)
				}
				continue
			}
			h.Inspect(func(pt *PathTable) {
				want := (&Builder{Net: n, Space: pt.Space, Params: pt.Params, Configs: configs}).Build()
				if err := h.Current().Diff(want); err != nil {
					t.Fatalf("step %d: %v of rule %d %v at %s: %v", step, fm.Command, fm.RuleID, &fm.Rule, sw.Name, err)
				}
			})
		}
		if p := h.FlowModPaths(); p.Rerun != 0 {
			t.Fatalf("FlowMods without rewrites re-ran Algorithm 2: %+v", p)
		}
	})
}

package core

import (
	"testing"

	"veridp/internal/flowtable"
	"veridp/internal/openflow"
)

// TestApplyFlowModChurnStaysBounded toggles one host route through
// ApplyFlowMod: each add and delete goes by §4.4 delta, and the writer's
// garbage — dead traversal arrivals, BDD nodes — stays bounded however
// long the churn runs, while the table keeps matching a from-scratch
// build.
func TestApplyFlowModChurnStaysBounded(t *testing.T) {
	d := newDiamondEnv(t)
	h := NewHandle(d.pt)
	add := &openflow.FlowMod{Command: openflow.FlowAdd, Switch: d.s1, RuleID: 1 << 40, Rule: flowtable.Rule{
		Priority: 32, Match: flowtable.Match{DstPrefix: flowtable.Prefix{IP: 0x0a000201, Len: 32}}, Action: flowtable.ActOutput, OutPort: 4,
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
	if size := h.work.Space.T.Size(); size >= 2*h.prefix.bddBase {
		t.Fatalf("header space at %d nodes, twice the %d of its last build", size, h.prefix.bddBase)
	}
	if h.prefix.trees[d.s1] == nil {
		t.Fatal("S1 holds only prefix rules but has no prefix tree")
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

package policy

import (
	"testing"

	"veridp/internal/bloom"
	"veridp/internal/controller"
	"veridp/internal/core"
	"veridp/internal/dataplane"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/topo"
)

func build(t *testing.T, n *topo.Network, s Suite) (*dataplane.Fabric, *controller.Controller, *core.PathTable) {
	t.Helper()
	f := dataplane.NewFabric(n)
	c := controller.New(n, &dataplane.FabricInstaller{Fabric: f})
	if err := s.Compile(c); err != nil {
		t.Fatal(err)
	}
	pt := (&core.Builder{Net: n, Space: header.NewSpace(), Params: bloom.DefaultParams, Configs: c.Logical()}).Build()
	return f, c, pt
}

func TestReachabilityCompileAndCheck(t *testing.T) {
	n := topo.Linear(3, 1)
	suite := Suite{
		Reachability{SrcHost: "h1-0", DstHost: "h3-0"},
		Reachability{SrcHost: "h3-0", DstHost: "h1-0"},
	}
	f, _, pt := build(t, n, suite)
	if errs := suite.Check(pt); len(errs) != 0 {
		t.Fatalf("healthy compile violates its own intent: %v", errs)
	}
	// The data plane agrees.
	h := header.Header{SrcIP: n.Host("h1-0").IP, DstIP: n.Host("h3-0").IP, Proto: 6}
	res, err := f.InjectFromHost("h1-0", h)
	if err != nil || res.Outcome != dataplane.OutcomeDelivered {
		t.Fatalf("reachability not realized: %v %v", res.Outcome, err)
	}
}

func TestReachabilityCheckCatchesMissingRoute(t *testing.T) {
	n := topo.Linear(3, 1)
	suite := Suite{Reachability{SrcHost: "h1-0", DstHost: "h3-0"}}
	_, c, _ := build(t, n, suite)
	// Remove the route at the middle switch logically: I ≠ R now.
	mid := n.SwitchByName("s2").ID
	for _, r := range c.Logical()[mid].Table.Rules() {
		if err := c.RemoveRule(mid, r.ID); err != nil {
			t.Fatal(err)
		}
	}
	pt := (&core.Builder{Net: n, Space: header.NewSpace(), Params: bloom.DefaultParams, Configs: c.Logical()}).Build()
	if err := (Reachability{SrcHost: "h1-0", DstHost: "h3-0"}).Check(pt); err == nil {
		t.Fatal("broken route passed the static check")
	}
}

func TestIsolation(t *testing.T) {
	n := topo.Linear(3, 1)
	forbidden := Isolation{
		SrcPrefix: flowtable.Prefix{IP: n.Host("h1-0").IP, Len: 32},
		DstPrefix: flowtable.Prefix{IP: n.Host("h3-0").IP, Len: 32},
	}
	suite := Suite{
		Reachability{SrcHost: "h1-0", DstHost: "h3-0"},
		Reachability{SrcHost: "h2-0", DstHost: "h3-0"},
		forbidden,
	}
	f, c, pt := build(t, n, suite)
	if err := forbidden.Check(pt); err != nil {
		t.Fatalf("compiled isolation violates its own check: %v", err)
	}
	// Operationally: h1 is blocked, h2 still flows.
	h1 := header.Header{SrcIP: n.Host("h1-0").IP, DstIP: n.Host("h3-0").IP, Proto: 6}
	res, _ := f.InjectFromHost("h1-0", h1)
	if res.Outcome != dataplane.OutcomeDropped {
		t.Fatalf("isolated traffic delivered: %v", res.Outcome)
	}
	h2 := header.Header{SrcIP: n.Host("h2-0").IP, DstIP: n.Host("h3-0").IP, Proto: 6}
	res, _ = f.InjectFromHost("h2-0", h2)
	if res.Outcome != dataplane.OutcomeDelivered {
		t.Fatalf("collateral damage: %v", res.Outcome)
	}
	// Static check catches a logical configuration that breaks isolation:
	// remove the deny from the logical store.
	dst := n.Host("h3-0").Attach.Switch
	for _, r := range c.Logical()[dst].Table.Rules() {
		if r.Action == flowtable.ActDrop {
			if err := c.RemoveRule(dst, r.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	pt2 := (&core.Builder{Net: n, Space: header.NewSpace(), Params: bloom.DefaultParams, Configs: c.Logical()}).Build()
	if err := forbidden.Check(pt2); err == nil {
		t.Fatal("isolation breach passed the static check")
	}
}

func TestWaypointPolicy(t *testing.T) {
	n := topo.Figure5()
	wp := Waypoint{
		Match:     flowtable.Match{HasDst: true, DstPort: 22},
		SrcHost:   "H1",
		DstHost:   "H3",
		Middlebox: topo.PortKey{Switch: n.SwitchByName("S2").ID, Port: 3},
		Priority:  100,
	}
	suite := Suite{
		Reachability{SrcHost: "H1", DstHost: "H3"},
		wp,
	}
	f, c, pt := build(t, n, suite)
	if err := wp.Check(pt); err != nil {
		t.Fatalf("compiled waypoint violates its own check: %v", err)
	}
	// Operationally: SSH detours, web goes direct.
	ssh := header.Header{SrcIP: n.Host("H1").IP, DstIP: n.Host("H3").IP, Proto: 6, DstPort: 22}
	res, _ := f.InjectFromHost("H1", ssh)
	if len(res.Path) != 4 {
		t.Fatalf("SSH path %v", res.Path)
	}
	// Static violation: drop the logical waypoint rules; the check fails.
	s1 := n.SwitchByName("S1").ID
	for _, r := range c.Logical()[s1].Table.Rules() {
		if r.Priority == 100 {
			if err := c.RemoveRule(s1, r.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	pt2 := (&core.Builder{Net: n, Space: header.NewSpace(), Params: bloom.DefaultParams, Configs: c.Logical()}).Build()
	if err := wp.Check(pt2); err == nil {
		t.Fatal("middlebox bypass passed the static check")
	}
}

func TestSuiteCollectsViolations(t *testing.T) {
	n := topo.Linear(2, 1)
	// Intent that was never compiled: both checks must fail.
	suite := Suite{
		Reachability{SrcHost: "h1-0", DstHost: "h2-0"},
		Reachability{SrcHost: "h2-0", DstHost: "h1-0"},
	}
	f := dataplane.NewFabric(n)
	c := controller.New(n, &dataplane.FabricInstaller{Fabric: f})
	pt := (&core.Builder{Net: n, Space: header.NewSpace(), Params: bloom.DefaultParams, Configs: c.Logical()}).Build()
	if errs := suite.Check(pt); len(errs) != 2 {
		t.Fatalf("got %d violations, want 2: %v", len(errs), errs)
	}
}

func TestPolicyErrors(t *testing.T) {
	n := topo.Linear(2, 1)
	f := dataplane.NewFabric(n)
	c := controller.New(n, &dataplane.FabricInstaller{Fabric: f})
	if err := (Reachability{SrcHost: "ghost", DstHost: "h1-0"}).Compile(c); err == nil {
		t.Fatal("unknown src accepted")
	}
	if err := (Isolation{DstPrefix: flowtable.Prefix{IP: 0xdead0000, Len: 16}}).Compile(c); err == nil {
		t.Fatal("isolation with no protected hosts accepted")
	}
	if err := (Waypoint{SrcHost: "ghost"}).Compile(c); err == nil {
		t.Fatal("unknown waypoint host accepted")
	}
}

package baselines

import (
	"testing"

	"veridp/internal/bloom"
	"veridp/internal/core"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/sim"
	"veridp/internal/topo"
)

func figure5() (*sim.Env, *core.PathTable) {
	e, err := sim.Figure5Env(bloom.DefaultParams)
	if err != nil {
		panic(err)
	}
	return e, e.Table()
}

func TestATPGHealthyNetworkPasses(t *testing.T) {
	e, pt := figure5()
	probes := GenerateATPGProbes(pt)
	if len(probes) == 0 {
		t.Fatal("no probes generated")
	}
	res, err := RunATPG(e.Fabric, probes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("healthy network failed %d probes: %v", res.Failed, res.Failures)
	}
}

func TestATPGCoversAllRules(t *testing.T) {
	_, pt := figure5()
	probes := GenerateATPGProbes(pt)
	covered := map[RuleRef]bool{}
	for _, p := range probes {
		for _, r := range p.Covers {
			covered[r] = true
		}
	}
	// Every rule that some packet can trigger from an edge port should be
	// covered; in Figure 5 that is most of the ten rules.
	if len(covered) < 8 {
		t.Fatalf("probes cover only %d rules", len(covered))
	}
}

func TestATPGSetCoverSmallerThanCandidates(t *testing.T) {
	_, pt := figure5()
	probes := GenerateATPGProbes(pt)
	// The greedy cover should not exceed the number of path entries.
	if len(probes) > pt.Stats().Paths {
		t.Fatalf("set cover grew: %d probes for %d paths", len(probes), pt.Stats().Paths)
	}
}

func TestATPGCatchesBlackhole(t *testing.T) {
	e, pt := figure5()
	probes := GenerateATPGProbes(pt)
	// Fault: S3's delivery rule to H3 becomes a drop.
	s3 := e.Net.SwitchByName("S3").ID
	var target uint64
	for _, r := range e.Fabric.Switch(s3).Config.Table.Rules() {
		if r.Action == flowtable.ActOutput && r.OutPort == 2 {
			target = r.ID
		}
	}
	if err := e.Fabric.Switch(s3).Config.Table.Modify(target, func(r *flowtable.Rule) { r.Action = flowtable.ActDrop }); err != nil {
		t.Fatal(err)
	}
	res, err := RunATPG(e.Fabric, probes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Fatal("ATPG missed a black hole it is designed to catch")
	}
}

// TestATPGMissesPathDeviation reproduces the §3.1 argument: a fault that
// deviates the path but still delivers the packet passes ATPG's
// reception-only check, while VeriDP's tag verification catches it.
func TestATPGMissesPathDeviation(t *testing.T) {
	e, pt := figure5()
	probes := GenerateATPGProbes(pt)

	// Fault: the SSH redirect at S1 (to the middlebox) sends traffic down
	// the direct link instead. SSH still reaches H3 — but bypasses the
	// middlebox.
	s1 := e.Net.SwitchByName("S1").ID
	var sshRule uint64
	for _, r := range e.Fabric.Switch(s1).Config.Table.Rules() {
		if r.Match.HasDst && r.Match.DstPort == 22 {
			sshRule = r.ID
		}
	}
	if sshRule == 0 {
		t.Fatal("SSH rule not found")
	}
	if err := e.Fabric.Switch(s1).Config.Table.Modify(sshRule, func(r *flowtable.Rule) { r.OutPort = 4 }); err != nil {
		t.Fatal(err)
	}

	res, err := RunATPG(e.Fabric, probes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("expected ATPG to miss the deviation, but it failed %d probes", res.Failed)
	}

	// VeriDP catches the same fault.
	ssh := header.Header{SrcIP: 0x0a000101, DstIP: 0x0a000201, Proto: header.ProtoTCP, DstPort: 22}
	r, err := e.Fabric.InjectFromHost("H1", ssh)
	if err != nil {
		t.Fatal(err)
	}
	if v := pt.Verify(r.Reports[0]); v.OK {
		t.Fatal("VeriDP should catch the middlebox bypass")
	}
}

func TestMonocleProbesHealthySwitch(t *testing.T) {
	e, _ := figure5()
	s1 := e.Net.SwitchByName("S1").ID
	cfg := e.Ctrl.Logical()[s1]
	probes, shadowed, err := GenerateMonocleProbes(e.Space, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) == 0 {
		t.Fatal("no probes")
	}
	_ = shadowed
	for _, v := range CheckSwitch(e.Fabric.Switch(s1).Config, probes) {
		if !v.OK {
			t.Fatalf("healthy switch failed rule %d: got %s want %s", v.RuleID, v.GotOut, v.ExpectOut)
		}
	}
}

func TestMonocleDetectsEvictionAndModification(t *testing.T) {
	e, _ := figure5()
	s1 := e.Net.SwitchByName("S1").ID
	cfg := e.Ctrl.Logical()[s1]
	probes, _, err := GenerateMonocleProbes(e.Space, cfg)
	if err != nil {
		t.Fatal(err)
	}
	phys := e.Fabric.Switch(s1).Config

	// Evict the SSH redirect.
	var sshRule uint64
	for _, r := range phys.Table.Rules() {
		if r.Match.HasDst && r.Match.DstPort == 22 {
			sshRule = r.ID
		}
	}
	if err := phys.Table.Delete(sshRule); err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, v := range CheckSwitch(phys, probes) {
		if !v.OK {
			bad++
			if v.RuleID != sshRule {
				t.Fatalf("wrong rule flagged: %d (evicted %d)", v.RuleID, sshRule)
			}
		}
	}
	if bad != 1 {
		t.Fatalf("eviction should fail exactly the evicted rule's probe, failed %d", bad)
	}
}

func TestMonocleShadowedRules(t *testing.T) {
	s := header.NewSpace()
	cfg := flowtable.NewSwitchConfig([]topo.PortID{1, 2})
	cfg.Table.Add(&flowtable.Rule{Priority: 10, Action: flowtable.ActOutput, OutPort: 1}) // match-all
	lo, _ := cfg.Table.Add(&flowtable.Rule{Priority: 5, Match: flowtable.Match{HasDst: true, DstPort: 80}, Action: flowtable.ActOutput, OutPort: 2})
	probes, shadowed, err := GenerateMonocleProbes(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) != 1 {
		t.Fatalf("probes %d, want 1", len(probes))
	}
	if len(shadowed) != 1 || shadowed[0] != lo {
		t.Fatalf("shadowed = %v, want [%d]", shadowed, lo)
	}
}

func BenchmarkMonocleProbeGen1K(b *testing.B) {
	// The §1 scaling argument: probe generation cost grows with the rule
	// count, which is why Monocle cannot track frequent updates.
	s := header.NewSpace()
	cfg := flowtable.NewSwitchConfig([]topo.PortID{1, 2, 3, 4})
	for i := 0; i < 1000; i++ {
		cfg.Table.Add(&flowtable.Rule{
			Priority: uint16(24),
			Match:    flowtable.Match{DstPrefix: flowtable.Prefix{IP: uint32(10)<<24 | uint32(i)<<8, Len: 24}},
			Action:   flowtable.ActOutput,
			OutPort:  topo.PortID(i%4 + 1),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := GenerateMonocleProbes(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

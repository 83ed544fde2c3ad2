package sim

import (
	"testing"
	"time"

	"veridp/internal/bloom"
	"veridp/internal/core"
	"veridp/internal/dataplane"
	"veridp/internal/faults"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/openflow"
	"veridp/internal/topo"
	"veridp/internal/traffic"
)

// small scales keep the test suite fast; the bench harness uses larger ones.
var (
	testStanford  = StanfordScale{HostsPerRouter: 2, SubnetsPerRouter: 4, ACLRules: 8, Seed: 1}
	testInternet2 = Internet2Scale{HostsPerRouter: 1, Prefixes: 24, Seed: 2}
)

func TestFatTreeEnvConsistentByDefault(t *testing.T) {
	e, err := FatTreeEnv(4, bloom.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	pt := e.Table()
	if pt.Stats().Paths == 0 {
		t.Fatal("empty path table")
	}
	// Every ping verifies on a healthy network.
	for _, ping := range traffic.PingMesh(e.Net)[:100] {
		res, err := e.Fabric.InjectFromHost(ping.SrcHost, ping.Header)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != dataplane.OutcomeDelivered {
			t.Fatalf("%s→%s: %v", ping.SrcHost, ping.DstHost, res.Outcome)
		}
		for _, rep := range res.Reports {
			if v := pt.Verify(rep); !v.OK {
				t.Fatalf("healthy fat tree failed verification: %v", v.Reason)
			}
		}
	}
}

func TestStanfordEnvShapeAndConsistency(t *testing.T) {
	e, err := StanfordEnv(testStanford, bloom.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	pt := e.Table()
	st := pt.Stats()
	if st.Pairs == 0 || st.Paths == 0 {
		t.Fatalf("stats %+v", st)
	}
	// Cross-zone path length ~5 switches (zone → L2 → backbone → L2 → zone).
	if st.AvgPathLength < 2 || st.AvgPathLength > 7 {
		t.Fatalf("avg path length %v implausible for the Stanford shape", st.AvgPathLength)
	}
	// Healthy network verifies.
	h := header.Header{
		SrcIP: e.Net.Host("host-boza-0").IP,
		DstIP: e.Net.Host("host-yozb-0").IP,
		Proto: header.ProtoTCP, DstPort: 80, SrcPort: 4242,
	}
	res, err := e.Fabric.InjectFromHost("host-boza-0", h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != dataplane.OutcomeDelivered {
		t.Fatalf("outcome %v", res.Outcome)
	}
	for _, rep := range res.Reports {
		if v := pt.Verify(rep); !v.OK {
			t.Fatalf("healthy Stanford failed verification: %v", v.Reason)
		}
	}
}

func TestStanfordACLsAreEnforced(t *testing.T) {
	// With ACLs in both planes, some cross-zone flow must be dropped AND
	// verify (the drop is intended).
	e, err := StanfordEnv(StanfordScale{HostsPerRouter: 2, SubnetsPerRouter: 4, ACLRules: 200, Seed: 3}, bloom.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	pt := e.Table()
	drops := 0
	for _, ping := range traffic.PingMesh(e.Net) {
		h := ping.Header
		h.Proto = header.ProtoTCP
		h.DstPort = 80
		res, err := e.Fabric.InjectFromHost(ping.SrcHost, h)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome == dataplane.OutcomeDropped {
			drops++
		}
		for _, rep := range res.Reports {
			if v := pt.Verify(rep); !v.OK {
				t.Fatalf("consistent ACL drop failed verification: %v (%s→%s)", v.Reason, ping.SrcHost, ping.DstHost)
			}
		}
	}
	if drops == 0 {
		t.Fatal("200 ACLs produced no drops — ACL wiring inert?")
	}
}

func TestInternet2Env(t *testing.T) {
	e, err := Internet2Env(testInternet2, bloom.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	pt := e.Table()
	if pt.Stats().Paths == 0 {
		t.Fatal("empty table")
	}
	// The Internet2 shape: 9 routers, short paths (paper: 2.89 avg).
	if st := pt.Stats(); st.AvgPathLength > 5 {
		t.Fatalf("avg path length %v too long for Internet2", st.AvgPathLength)
	}
}

func TestFigure5Env(t *testing.T) {
	e, err := Figure5Env(bloom.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	pt := e.Table()
	res, err := e.Fabric.InjectFromHost("H1", header.Header{
		SrcIP: 0x0a000101, DstIP: 0x0a000201, Proto: header.ProtoTCP, DstPort: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != dataplane.OutcomeDelivered || len(res.Path) != 4 {
		t.Fatalf("SSH path %v (%v)", res.Path, res.Outcome)
	}
	if v := pt.Verify(res.Reports[0]); !v.OK {
		t.Fatalf("verdict %v", v.Reason)
	}
}

func TestFalseNegativeSweep(t *testing.T) {
	e, err := FatTreeEnv(4, bloom.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	points, err := FalseNegativeSweep(e, []int{8, 16, 32, 64}, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points %d", len(points))
	}
	for i, p := range points {
		if p.Trials == 0 {
			t.Fatalf("point %d ran no trials", i)
		}
		if p.FalseNegatives > p.Arrived || p.Arrived > p.Trials {
			t.Fatalf("inconsistent counts %+v", p)
		}
		if p.Absolute() > 0.6 {
			t.Fatalf("absolute FNR %.2f absurdly high at %d bits", p.Absolute(), p.MBits)
		}
	}
	// The Figure 12 shape: 64-bit tags essentially eliminate collisions.
	if last := points[len(points)-1]; last.Relative() > 0.02 {
		t.Fatalf("relative FNR %.3f at 64 bits — should be ~0", last.Relative())
	}
	// Monotone trend (allowing noise): 8-bit ≥ 64-bit.
	if points[0].Relative() < points[3].Relative() {
		t.Fatalf("FNR did not decrease with tag size: %v vs %v", points[0].Relative(), points[3].Relative())
	}
	// Each size is measured against its own tags: 8-bit tags collide
	// strictly more often than 16-bit ones.
	if points[0].Absolute() <= points[1].Absolute() {
		t.Fatalf("FNR at 8 bits (%+v) not above FNR at 16 bits (%+v)", points[0], points[1])
	}
	// Params restored.
	if e.Fabric.Params != bloom.DefaultParams || e.Table().Params != bloom.DefaultParams {
		t.Fatal("sweep did not restore params")
	}
}

func TestLocalizationFatTree(t *testing.T) {
	e, err := FatTreeEnv(4, bloom.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Localization(e, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedVerifications == 0 {
		t.Fatal("no verification failures across 3 fault rounds — faults inert?")
	}
	// Table 3's claim: localization probability is high (99.2% for k=4).
	if p := res.Probability(); p < 0.85 {
		t.Fatalf("localization probability %.2f below the paper's ballpark (%+v)", p, res)
	}
	// After restoration, the network verifies again.
	pt := e.Table()
	for _, ping := range traffic.PingMesh(e.Net)[:50] {
		r, err := e.Fabric.InjectFromHost(ping.SrcHost, ping.Header)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range r.Reports {
			if !pt.Verify(rep).OK {
				t.Fatal("fault restoration incomplete")
			}
		}
	}
}

func TestFunctionTests(t *testing.T) {
	results, err := FunctionTests(testStanford, bloom.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d scenarios", len(results))
	}
	for _, r := range results {
		if !r.Detected {
			t.Errorf("%s: fault not detected (%s)", r.Name, r.Detail)
		}
	}
	// The paper localizes the black-hole and deviation faults to boza.
	for _, r := range results {
		if r.Name == "black hole" || r.Name == "path deviation" {
			if !r.Localized {
				t.Errorf("%s: blamed %q, expected %q", r.Name, r.Blamed, r.Expected)
			}
		}
	}
}

func TestIncrementalUpdateExperiment(t *testing.T) {
	res, err := IncrementalUpdate(testInternet2, "wash")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measurements) == 0 {
		t.Fatal("no measurements")
	}
	// The headline claim: incremental updates are far cheaper than a full
	// rebuild (most under 10ms in the paper; we assert each median update
	// is well under the rebuild).
	med := res.Percentile(0.5)
	if med <= 0 {
		t.Fatal("non-positive median")
	}
	if med > res.RebuildTime {
		t.Fatalf("median incremental update %v slower than full rebuild %v", med, res.RebuildTime)
	}
	if res.Percentile(1.0) > 2*time.Second {
		t.Fatalf("worst-case update %v absurd", res.Percentile(1.0))
	}
}

// TestOverflowDetectedByVeriDP closes the §2.2 Pica8 story end to end:
// the overflow bug inverts a security rule's effect, packets still flow,
// and VeriDP's tag verification flags the inconsistency.
func TestOverflowDetectedByVeriDP(t *testing.T) {
	// Routes first (they fill the "hardware" table), then a high-priority
	// security deny installed last — the rule that overflows into the
	// dependency-blind software table.
	n := topo.Linear(3, 1)
	e := CustomEnv("overflow", n, bloom.DefaultParams)
	if err := e.Ctrl.RouteAllHosts(); err != nil {
		t.Fatal(err)
	}
	mid := n.SwitchByName("s2").ID
	deny := flowtable.Rule{
		Priority: 50000,
		Match:    flowtable.Match{SrcPrefix: flowtable.Prefix{IP: n.Host("h1-0").IP, Len: 32}},
		Action:   flowtable.ActDrop,
	}
	if _, err := e.Ctrl.InstallRule(mid, deny); err != nil {
		t.Fatal(err)
	}
	pt := e.Table()
	h := header.Header{SrcIP: n.Host("h1-0").IP, DstIP: n.Host("h3-0").IP, Proto: 6, DstPort: 80}

	// Healthy: the deny holds and verifies.
	res, err := e.Fabric.InjectFromHost("h1-0", h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != dataplane.OutcomeDropped {
		t.Fatalf("pre-fault outcome %v, want dropped", res.Outcome)
	}
	if v := pt.Verify(res.Reports[0]); !v.OK {
		t.Fatalf("pre-fault verdict %v", v.Reason)
	}

	// The switch's hardware table holds everything but the late deny.
	capacity := e.Fabric.Switch(mid).Config.Table.Len() - 1
	inj, err := faults.TableOverflow(e.Fabric, mid, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if len(inj) == 0 {
		t.Fatal("overflow injected nothing")
	}

	// The denied flow now slips through — and VeriDP catches it.
	res, err = e.Fabric.InjectFromHost("h1-0", h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != dataplane.OutcomeDelivered {
		t.Fatalf("post-fault outcome %v — bug did not manifest", res.Outcome)
	}
	detected := false
	for _, rep := range res.Reports {
		if !pt.Verify(rep).OK {
			detected = true
		}
	}
	if !detected {
		t.Fatal("table-overflow access violation escaped verification")
	}
}

// TestDetectionLatencyBound asserts the §4.5 worst case: a fault is
// detected within T_s + T_a of occurring.
func TestDetectionLatencyBound(t *testing.T) {
	cfg := LatencyConfig{
		SamplingInterval: 100 * time.Millisecond,
		MaxInterArrival:  40 * time.Millisecond,
		Trials:           40,
		Seed:             13,
	}
	res, err := DetectionLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Latencies) != cfg.Trials {
		t.Fatalf("latencies %d, want %d", len(res.Latencies), cfg.Trials)
	}
	if max := res.Max(); max > res.Bound {
		t.Fatalf("detection latency %v exceeds the §4.5 bound T_s+T_a = %v", max, res.Bound)
	}
	// The bound should also be approached: some latency above T_a alone
	// shows the sampler (not just packet gaps) drives the worst case.
	if res.Max() <= cfg.MaxInterArrival {
		t.Logf("note: max latency %v never exceeded T_a; bound untested at the top end", res.Max())
	}
}

// TestReportVolumeBeatsNetSight quantifies the §7 comparison: per-hop
// postcards dwarf sampled tag reports on the same workload.
func TestReportVolumeBeatsNetSight(t *testing.T) {
	res, err := ReportVolume(VolumeConfig{
		Flows:            30,
		PacketsPerFlow:   40,
		MeanInterArrival: 5 * time.Millisecond,
		SamplingInterval: 200 * time.Millisecond,
		Seed:             21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 30*40 {
		t.Fatalf("packets %d", res.Packets)
	}
	if res.VeriDPReports == 0 {
		t.Fatal("sampling produced no reports at all")
	}
	if res.VeriDPReports >= res.Packets {
		t.Fatalf("sampling did not thin reports: %d reports for %d packets", res.VeriDPReports, res.Packets)
	}
	if res.Ratio() < 10 {
		t.Fatalf("NetSight/VeriDP volume ratio %.1f — expected an order of magnitude (postcards=%d, reports=%d)",
			res.Ratio(), res.NetSightPostcards, res.VeriDPReports)
	}
}

// TestIncrementalUpdateCorrectness: after the incremental run, the
// monitor's snapshot still matches data-plane behavior.
func TestIncrementalUpdateCorrectness(t *testing.T) {
	e, err := Internet2Env(testInternet2, bloom.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	_, h, err := e.incrementalUpdate("wash")
	if err != nil {
		t.Fatal(err)
	}
	snap := h.Current()

	// Spot-check: traffic through wash verifies against the updated table.
	checked := 0
	for _, ping := range traffic.PingMesh(e.Net) {
		res, err := e.Fabric.InjectFromHost(ping.SrcHost, ping.Header)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range res.Reports {
			if v := snap.Verify(rep); !v.OK {
				t.Fatalf("post-update verification failed: %v (%s→%s)", v.Reason, ping.SrcHost, ping.DstHost)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no reports checked")
	}
}

// TestLiveUpdatesMatchBuild installs every rule of a reduced Stanford
// network (with its ACLs and service policies) and a reduced Internet2
// network (with its service policies) one FlowAdd at a time from empty
// tables through core.Handle.ApplyFlowMod, then modifies every third rule
// into a drop and deletes every third. After every FlowMod the published
// table must equal a from-scratch build over the edited configurations,
// and every FlowMod takes its rule's difference, apart from the rebuilds
// that bound the header space.
func TestLiveUpdatesMatchBuild(t *testing.T) {
	stanford := StanfordScale{HostsPerRouter: 1, SubnetsPerRouter: 3, ACLRules: 16, ServicePolicies: 12, Seed: 3}
	internet2 := Internet2Scale{HostsPerRouter: 1, Prefixes: 16, ServicePolicies: 8, Seed: 2}
	for _, tc := range []struct {
		name string
		env  func() (*Env, error)
	}{
		{"stanford", func() (*Env, error) { return StanfordEnv(stanford, bloom.DefaultParams) }},
		{"internet2", func() (*Env, error) { return Internet2Env(internet2, bloom.DefaultParams) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := tc.env()
			if err != nil {
				t.Fatal(err)
			}
			configs := make(map[topo.SwitchID]*flowtable.SwitchConfig)
			var adds []*openflow.FlowMod
			acls := 0
			for _, sw := range e.Net.Switches() {
				cfg := e.Ctrl.Logical()[sw.ID].Clone()
				for _, r := range cfg.Table.Rules() {
					adds = append(adds, &openflow.FlowMod{Command: openflow.FlowAdd, Switch: sw.ID, RuleID: r.ID, Rule: *r})
				}
				if cfg.HasACLs() {
					acls++
				}
				cfg.Table = flowtable.NewTable()
				configs[sw.ID] = cfg
			}
			if tc.name == "stanford" && acls == 0 {
				t.Fatal("the reduced Stanford network has no ACLs")
			}
			var later []*openflow.FlowMod
			for i, f := range adds {
				switch i % 3 {
				case 0:
					later = append(later, &openflow.FlowMod{Command: openflow.FlowDelete, Switch: f.Switch, RuleID: f.RuleID})
				case 1:
					m := *f
					m.Command, m.Rule.Action, m.Rule.OutPort = openflow.FlowModify, flowtable.ActDrop, 0
					later = append(later, &m)
				}
			}
			h := core.NewHandle((&core.Builder{Net: e.Net, Space: header.NewSpace(), Params: e.Params, Configs: configs}).Build())
			for i, f := range append(adds, later...) {
				if err := h.ApplyFlowMod(f.Switch, f); err != nil {
					t.Fatalf("FlowMod %d: %v", i, err)
				}
				h.Inspect(func(pt *core.PathTable) {
					want := (&core.Builder{Net: e.Net, Space: pt.Space, Params: pt.Params, Configs: configs}).Build()
					if err := h.Current().Diff(want); err != nil {
						t.Fatalf("after FlowMod %d (%v rule %d %v at switch %d): %v", i, f.Command, f.RuleID, &f.Rule, f.Switch, err)
					}
				})
			}
			if p := h.FlowModPaths(); p.Rerun != 0 || p.Delta+p.Rebuild != uint64(len(adds)+len(later)) {
				t.Fatalf("%d FlowMods took %+v", len(adds)+len(later), p)
			}
		})
	}
}

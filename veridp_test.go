package veridp

import (
	"context"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"

	"veridp/internal/controller"
	"veridp/internal/core"
	"veridp/internal/dataplane"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/openflow"
)

// newFlowAdd wraps a rule in the southbound FlowMod envelope.
func newFlowAdd(sw SwitchID, id uint64, r *flowtable.Rule) *openflow.FlowMod {
	return &openflow.FlowMod{Command: openflow.FlowAdd, Switch: sw, RuleID: id, Rule: *r}
}

// buildFigure5 wires the running example through the public API only.
func buildFigure5(t *testing.T) (*Emulation, map[string]uint64) {
	t.Helper()
	net := Figure5()
	em := NewEmulation(net, DefaultTagParams)
	s1 := net.SwitchByName("S1").ID
	s2 := net.SwitchByName("S2").ID
	s3 := net.SwitchByName("S3").ID
	ids := map[string]uint64{}
	add := func(name string, sw SwitchID, r Rule) {
		id, err := em.Controller.InstallRule(sw, r)
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = id
	}
	add("h1", s1, Rule{Priority: 30, Match: Match{DstPrefix: Prefix{IP: MustParseIP("10.0.1.1"), Len: 32}}, Action: ActOutput, OutPort: 1})
	add("h2", s1, Rule{Priority: 30, Match: Match{DstPrefix: Prefix{IP: MustParseIP("10.0.1.2"), Len: 32}}, Action: ActOutput, OutPort: 2})
	add("ssh", s1, Rule{Priority: 20, Match: Match{DstPrefix: Prefix{IP: MustParseIP("10.0.2.0"), Len: 24}, HasDst: true, DstPort: 22}, Action: ActOutput, OutPort: 3})
	add("web", s1, Rule{Priority: 10, Match: Match{DstPrefix: Prefix{IP: MustParseIP("10.0.2.0"), Len: 24}}, Action: ActOutput, OutPort: 4})
	add("mb-in", s2, Rule{Priority: 10, Match: Match{InPort: 1}, Action: ActOutput, OutPort: 3})
	add("mb-out", s2, Rule{Priority: 10, Match: Match{InPort: 3}, Action: ActOutput, OutPort: 2})
	add("acl", s3, Rule{Priority: 30, Match: Match{SrcPrefix: Prefix{IP: MustParseIP("10.0.1.2"), Len: 32}}, Action: ActDrop})
	add("h3", s3, Rule{Priority: 20, Match: Match{DstPrefix: Prefix{IP: MustParseIP("10.0.2.0"), Len: 24}}, Action: ActOutput, OutPort: 2})
	add("back", s3, Rule{Priority: 10, Match: Match{DstPrefix: Prefix{IP: MustParseIP("10.0.1.0"), Len: 24}}, Action: ActOutput, OutPort: 3})
	return em, ids
}

func TestMonitorVerifiesHealthyTraffic(t *testing.T) {
	em, _ := buildFigure5(t)
	var violations []Violation
	mon := em.NewMonitor(MonitorConfig{
		OnViolation: func(v Violation) { violations = append(violations, v) },
	})
	h := Header{SrcIP: MustParseIP("10.0.1.1"), DstIP: MustParseIP("10.0.2.1"), Proto: 6, DstPort: 22}
	if _, err := em.Fabric.InjectFromHost("H1", h); err != nil {
		t.Fatal(err)
	}
	verified, violated := mon.Stats()
	if verified != 1 || violated != 0 {
		t.Fatalf("stats %d/%d, want 1/0 (violations: %v)", verified, violated, violations)
	}
}

func TestMonitorFlagsAndLocalizesFault(t *testing.T) {
	em, ids := buildFigure5(t)
	var got []Violation
	mon := em.NewMonitor(MonitorConfig{
		OnViolation: func(v Violation) { got = append(got, v) },
	})
	// Data-plane-only fault: the SSH redirect misforwards.
	s1 := em.Net.SwitchByName("S1").ID
	err := em.Fabric.Switch(s1).Config.Table.Modify(ids["ssh"], func(r *Rule) { r.OutPort = 4 })
	if err != nil {
		t.Fatal(err)
	}
	h := Header{SrcIP: MustParseIP("10.0.1.1"), DstIP: MustParseIP("10.0.2.1"), Proto: 6, DstPort: 22}
	if _, err := em.Fabric.InjectFromHost("H1", h); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("violations %d, want 1", len(got))
	}
	v := got[0]
	if !v.Localized || v.FaultySwitch != s1 {
		t.Fatalf("localization: %+v", v)
	}
	if v.Reason == "" || len(v.Candidates) == 0 {
		t.Fatalf("violation missing detail: %+v", v)
	}
	if _, violated := mon.Stats(); violated != 1 {
		t.Fatal("stats not updated")
	}
}

func TestMonitorVerifyWithoutCallbacks(t *testing.T) {
	em, _ := buildFigure5(t)
	mon := em.NewMonitor(MonitorConfig{})
	h := Header{SrcIP: MustParseIP("10.0.1.1"), DstIP: MustParseIP("10.0.2.1"), Proto: 6, DstPort: 80}
	res, err := em.Fabric.InjectFromHost("H1", h)
	if err != nil {
		t.Fatal(err)
	}
	ok, reason := mon.Verify(res.Reports[0])
	if !ok {
		t.Fatalf("healthy report failed: %s", reason)
	}
}

func TestMonitorPathTableStats(t *testing.T) {
	em, _ := buildFigure5(t)
	mon := em.NewMonitor(MonitorConfig{})
	st := mon.PathTable().Stats()
	if st.Pairs == 0 || st.Paths == 0 || st.AvgPathLength <= 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMonitorRepairRestoresConsistency(t *testing.T) {
	em, ids := buildFigure5(t)
	var lastViolation *Violation
	mon := em.NewMonitor(MonitorConfig{
		OnViolation: func(v Violation) { lastViolation = &v },
	})
	s1 := em.Net.SwitchByName("S1").ID
	if err := em.Fabric.Switch(s1).Config.Table.Modify(ids["ssh"], func(r *Rule) { r.OutPort = 4 }); err != nil {
		t.Fatal(err)
	}
	h := Header{SrcIP: MustParseIP("10.0.1.1"), DstIP: MustParseIP("10.0.2.1"), Proto: 6, DstPort: 22}
	if _, err := em.Fabric.InjectFromHost("H1", h); err != nil {
		t.Fatal(err)
	}
	if lastViolation == nil {
		t.Fatal("no violation observed")
	}
	blamed, err := mon.Repair(lastViolation.Report, &dataplane.FabricInstaller{Fabric: em.Fabric})
	if err != nil {
		t.Fatal(err)
	}
	if blamed != s1 {
		t.Fatalf("repaired switch %d, want %d", blamed, s1)
	}
	// The flow verifies again.
	before, violatedBefore := mon.Stats()
	if _, err := em.Fabric.InjectFromHost("H1", h); err != nil {
		t.Fatal(err)
	}
	after, violatedAfter := mon.Stats()
	if after != before+1 || violatedAfter != violatedBefore {
		t.Fatalf("post-repair stats: verified %d→%d violated %d→%d", before, after, violatedBefore, violatedAfter)
	}
}

func TestPolicySuiteThroughFacade(t *testing.T) {
	net := Linear(3, 1)
	em := NewEmulation(net, DefaultTagParams)
	suite := PolicySuite{
		Reachability{SrcHost: "h1-0", DstHost: "h3-0"},
		Isolation{
			SrcPrefix: Prefix{IP: net.Host("h2-0").IP, Len: 32},
			DstPrefix: Prefix{IP: net.Host("h3-0").IP, Len: 32},
		},
	}
	if err := suite.Compile(em.Controller); err != nil {
		t.Fatal(err)
	}
	mon := em.NewMonitor(MonitorConfig{})
	if errs := suite.Check(mon.PathTable()); len(errs) != 0 {
		t.Fatalf("static check: %v", errs)
	}
	// The isolation holds operationally and verifies.
	h := Header{SrcIP: net.Host("h2-0").IP, DstIP: net.Host("h3-0").IP, Proto: 6}
	res, err := em.Fabric.InjectFromHost("h2-0", h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit.Port != DropPort {
		t.Fatalf("isolation not enforced: %v", res.Exit)
	}
	if _, violated := mon.Stats(); violated != 0 {
		t.Fatal("intended drop flagged as a violation")
	}
}

func TestProxyHooksRebuildOnFlowMod(t *testing.T) {
	em, _ := buildFigure5(t)
	mon := em.NewMonitor(MonitorConfig{})

	// Clone the logical configs the hooks mutate (stand-in for the server
	// process's own copy).
	logical := em.Controller.Logical()
	hooks := mon.ProxyHooks(logical)

	// A new rule arrives through the proxy: S3 starts dropping SSH.
	s3 := em.Net.SwitchByName("S3").ID
	fm := &flowtable.Rule{
		Priority: 40,
		Match:    Match{HasDst: true, DstPort: 22},
		Action:   ActDrop,
	}
	hooks.OnFlowMod(s3, newFlowAdd(s3, 999, fm))

	// The table now expects SSH to drop at S3 — a delivered SSH packet
	// must fail verification. (The data plane never got the rule: this is
	// the inconsistency.)
	h := Header{SrcIP: MustParseIP("10.0.1.1"), DstIP: MustParseIP("10.0.2.1"), Proto: 6, DstPort: 22}
	res, err := em.Fabric.InjectFromHost("H1", h)
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := mon.Verify(res.Reports[0])
	if ok {
		t.Fatal("path table did not track the FlowMod through the proxy hooks")
	}
}

// flowModLog is a controller.Installer that only records the FlowMods the
// controller computes.
type flowModLog struct{ mods []*openflow.FlowMod }

func (l *flowModLog) Apply(f *openflow.FlowMod) error {
	c := *f
	l.mods = append(l.mods, &c)
	return nil
}

func (l *flowModLog) Barrier(SwitchID) error { return nil }

// emptyConfigs is a server's logical state at a cold start: every switch
// known, no rule installed.
func emptyConfigs(net *Network) map[SwitchID]*flowtable.SwitchConfig {
	cfgs := make(map[SwitchID]*flowtable.SwitchConfig, net.NumSwitches())
	for _, sw := range net.Switches() {
		cfgs[sw.ID] = flowtable.NewSwitchConfig(sw.Ports())
	}
	return cfgs
}

// proxyRig feeds FlowMods to a monitor through its ProxyHooks, as the
// interception proxy does, and keeps ref — the logical state the switches
// are told to hold — beside it.
type proxyRig struct {
	t     *testing.T
	net   *Network
	mon   *Monitor
	hooks openflow.ProxyHooks
	ref   map[SwitchID]*flowtable.SwitchConfig
	sent  int
	// renewals counts the FlowMods after which every exit port's cache
	// epoch was new: the signature of a table re-run or rebuilt, where a
	// rule's difference renews only the shards of the pairs it moved.
	// rebuilds counts those that replaced the header space.
	renewals, rebuilds int
}

func newProxyRig(t *testing.T, net *Network) *proxyRig {
	logical := emptyConfigs(net)
	mon := NewMonitor(net, logical, MonitorConfig{})
	return &proxyRig{t: t, net: net, mon: mon, hooks: mon.ProxyHooks(logical), ref: emptyConfigs(net)}
}

// send passes one FlowMod through the hook and checks that the published
// table equals Algorithm 2 run from scratch over ref: the same entries
// (header sets unioned per ⟨inport, outport, path, tag⟩) and Stats. It
// reports whether the FlowMod renewed every exit port's epoch.
func (r *proxyRig) send(f *openflow.FlowMod) (renewedAll bool) {
	r.t.Helper()
	if err := openflow.ApplyFlowMod(r.ref[f.Switch].Table, f); err != nil {
		r.t.Fatalf("FlowMod %d (%v rule %d): reference edit: %v", r.sent, f.Command, f.RuleID, err)
	}
	h := r.mon.Handle()
	before, space := h.Current(), r.mon.PathTable().Space
	r.hooks.OnFlowMod(f.Switch, f)
	r.sent++
	after := h.Current()
	if r.mon.PathTable().Space != space {
		r.rebuilds++
	}
	h.Inspect(func(pt *core.PathTable) {
		want := (&core.Builder{Net: r.net, Space: pt.Space, Params: pt.Params, Configs: r.ref}).Build()
		if err := after.Diff(want); err != nil {
			r.t.Fatalf("after FlowMod %d (%v rule %d at switch %d): %v", r.sent, f.Command, f.RuleID, f.Switch, err)
		}
	})
	renewedAll = true
	for _, sw := range r.net.Switches() {
		if out := (PortKey{Switch: sw.ID, Port: DropPort}); after.Epoch(out) == before.Epoch(out) {
			renewedAll = false
		}
	}
	for _, host := range r.net.Hosts() {
		if after.Epoch(host.Attach) == before.Epoch(host.Attach) {
			renewedAll = false
		}
	}
	if renewedAll {
		r.renewals++
	}
	return renewedAll
}

// checkDeltas fails the test unless every FlowMod so far took its
// difference, apart from the rebuilds that bound the header space — and
// those are a small share.
func (r *proxyRig) checkDeltas() {
	r.t.Helper()
	if r.renewals != r.rebuilds || r.rebuilds*20 > r.sent {
		r.t.Fatalf("of %d FlowMods, %d renewed every cache epoch and %d rebuilt the header space; want only the rebuilds, under 5%%",
			r.sent, r.renewals, r.rebuilds)
	}
}

// routeAll computes RoutePrefix FlowMods for every host of the fat tree.
func routeAll(t *testing.T, net *Network) []*openflow.FlowMod {
	t.Helper()
	log := &flowModLog{}
	ctrl := controller.New(net, log)
	if err := ctrl.RouteAllHosts(); err != nil {
		t.Fatal(err)
	}
	return log.mods
}

// churn sends random deletes, re-adds and modifies of the given prefix
// rules. Modifies move a rule to another port (or to a drop) and keep its
// prefix and priority.
func (r *proxyRig) churn(rules []*openflow.FlowMod, steps int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	installed := make([]bool, len(rules))
	for i := range installed {
		installed[i] = true
	}
	for step := 0; step < steps; step++ {
		i := rng.Intn(len(rules))
		m := *rules[i]
		switch {
		case !installed[i]:
			m.Command = openflow.FlowAdd
			installed[i] = true
		case rng.Intn(2) == 0:
			m.Command = openflow.FlowDelete
			installed[i] = false
		default:
			ports := r.net.Switch(m.Switch).Ports()
			m.Command = openflow.FlowModify
			if p := rng.Intn(len(ports) + 1); p == len(ports) {
				m.Rule.Action = flowtable.ActDrop
			} else {
				m.Rule.OutPort = ports[p]
			}
			rules[i] = &openflow.FlowMod{Command: openflow.FlowAdd, Switch: m.Switch, RuleID: m.RuleID, Rule: m.Rule}
		}
		r.send(&m)
	}
}

// TestProxyHooksIncrementalMatchesRebuild is the incremental twin of
// TestProxyHooksRebuildOnFlowMod: fattree4 shortest-path routes arrive
// through the proxy hook one FlowMod at a time from a cold start (empty
// logical configurations, as veridp-server starts), then random deletes,
// re-adds and modifies follow, and after every FlowMod the published table
// must equal a from-scratch build. The hook takes each rule's difference
// for every one of them, apart from the few rebuilds that bound the header
// space.
func TestProxyHooksIncrementalMatchesRebuild(t *testing.T) {
	r := newProxyRig(t, FatTree(4))
	mods := routeAll(t, r.net)
	for _, f := range mods {
		r.send(f)
	}
	r.churn(mods, 300, 1)
	r.checkDeltas()
}

// TestProxyHooksIncrementalWarmStart: the same drive, half of it before a
// restart through the rule cache (the -table-cache warm start) and half
// after, on a fresh monitor built from the decoded configurations. Before
// any FlowMod the rebuilt table equals Algorithm 2 over the saved rules;
// after every FlowMod it equals a from-scratch build, by deltas only.
func TestProxyHooksIncrementalWarmStart(t *testing.T) {
	r := newProxyRig(t, FatTree(4))
	mods := routeAll(t, r.net)
	half := len(mods) / 2
	for _, f := range mods[:half] {
		r.send(f)
	}

	b, err := r.mon.SaveRules()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRules(b, r.net)
	if err != nil {
		t.Fatal(err)
	}
	r.mon = NewMonitor(r.net, loaded, MonitorConfig{})
	r.hooks = r.mon.ProxyHooks(loaded)
	r.mon.Handle().Inspect(func(pt *core.PathTable) {
		want := (&core.Builder{Net: r.net, Space: pt.Space, Params: pt.Params, Configs: r.ref}).Build()
		if err := r.mon.Handle().Current().Diff(want); err != nil {
			t.Fatalf("warm-started table: %v", err)
		}
	})
	for _, f := range mods[half:] {
		r.send(f)
	}
	r.churn(mods, 150, 2)
	r.checkDeltas()
}

// TestProxyHooksDeltasUntilRewrite: in-port and L4 rules take their
// deltas like prefix rules do, and so does every FlowMod around them; one
// rewriting rule anywhere makes every FlowMod, on any switch, re-run
// Algorithm 2 — renewing every cache epoch — and deleting it returns the
// monitor to deltas.
func TestProxyHooksDeltasUntilRewrite(t *testing.T) {
	r := newProxyRig(t, FatTree(4))
	mods := routeAll(t, r.net)
	for _, f := range mods {
		r.send(f)
	}
	edge := mods[0].Switch
	var elsewhere *openflow.FlowMod
	for _, f := range mods[1:] {
		if f.Switch != edge {
			elsewhere = f
			break
		}
	}
	del := func(f *openflow.FlowMod) *openflow.FlowMod {
		return &openflow.FlowMod{Command: openflow.FlowDelete, Switch: f.Switch, RuleID: f.RuleID}
	}
	inPort := &openflow.FlowMod{Command: openflow.FlowAdd, Switch: edge, RuleID: 1 << 40, Rule: Rule{
		Priority: 100, Match: Match{InPort: 1, DstPrefix: Prefix{IP: MustParseIP("10.0.0.0"), Len: 8}}, Action: ActDrop,
	}}
	l4 := &openflow.FlowMod{Command: openflow.FlowAdd, Switch: edge, RuleID: 1<<40 + 1, Rule: Rule{
		Priority: 90, Match: Match{HasDst: true, DstPort: 22}, Action: ActDrop,
	}}
	nat := &openflow.FlowMod{Command: openflow.FlowAdd, Switch: elsewhere.Switch, RuleID: 1<<40 + 2, Rule: Rule{
		Priority: 80, Match: Match{DstPrefix: Prefix{IP: MustParseIP("203.0.113.80"), Len: 32}}, Action: ActOutput,
		OutPort: elsewhere.Rule.OutPort, Rewrite: &header.Rewrite{SetDstIP: true, DstIP: MustParseIP("10.0.0.2")},
	}}
	for _, step := range []struct {
		f     *openflow.FlowMod
		rerun bool
	}{
		{inPort, false}, {l4, false}, {del(mods[0]), false}, {mods[0], false},
		{nat, true}, {del(l4), true}, {del(elsewhere), true}, {elsewhere, true},
		{del(nat), true}, {l4, false}, {del(inPort), false}, {del(l4), false},
	} {
		before := r.mon.Handle().FlowModPaths()
		renewed := r.send(step.f)
		after := r.mon.Handle().FlowModPaths()
		if after.Rebuild != before.Rebuild {
			continue // a rebuild bounding the header space: neither path
		}
		if rerun := after.Rerun != before.Rerun; rerun != step.rerun || renewed != step.rerun {
			t.Fatalf("FlowMod %d (%v rule %d, match %v): re-ran %v, renewed every epoch %v; want %v",
				r.sent, step.f.Command, step.f.RuleID, step.f.Rule.Match, rerun, renewed, step.rerun)
		}
	}
	r.churn(mods, 100, 3)
	if p := r.mon.Handle().FlowModPaths(); p.Rerun != 5 {
		t.Fatalf("FlowMod paths %+v, want the 5 re-runs of the rewriting rule's lifetime", p)
	}
}

// TestFlowModStreamAgentMatchesProxy replays one FlowMod stream into a
// switch agent over the southbound channel and into a monitor's logical
// table through its proxy hook: after every FlowMod the two tables hold
// identical rules, rewrites included — one definition of add, modify and
// delete serves both — and a FlowMod the table rejects publishes nothing.
func TestFlowModStreamAgentMatchesProxy(t *testing.T) {
	n := Linear(2, 1)
	sw := n.SwitchByName("s1").ID
	fabric := dataplane.NewFabric(n)
	a, b := net.Pipe()
	agent := &dataplane.Agent{Fabric: fabric, ID: sw, Mu: &sync.Mutex{}}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		agent.Run(ctx, a) // returns once ctx is cancelled
	}()
	defer func() {
		cancel()
		<-done
	}()
	c := openflow.NewConn(b)
	if _, err := c.RecvHello(); err != nil {
		t.Fatal(err)
	}

	logical := emptyConfigs(n)
	mon := NewMonitor(n, logical, MonitorConfig{})
	hooks := mon.ProxyHooks(logical)

	nat := &header.Rewrite{SetDstIP: true, DstIP: MustParseIP("10.0.0.9")}
	rule := func(pri uint16, m Match, out PortID, rw *header.Rewrite) Rule {
		return Rule{Priority: pri, Match: m, Action: ActOutput, OutPort: out, Rewrite: rw}
	}
	dst24 := Match{DstPrefix: Prefix{IP: MustParseIP("10.0.0.0"), Len: 24}}
	host := Match{DstPrefix: Prefix{IP: MustParseIP("10.0.0.7"), Len: 32}}
	for _, tc := range []struct {
		name  string
		f     openflow.FlowMod
		fails bool
		nat11 bool // rule 11 carries the rewrite afterwards
	}{
		{"add", openflow.FlowMod{Command: openflow.FlowAdd, RuleID: 11, Rule: rule(24, dst24, 2, nil)}, false, false},
		{"add host", openflow.FlowMod{Command: openflow.FlowAdd, RuleID: 12, Rule: rule(32, host, 1, nil)}, false, false},
		{"modify adds a rewrite", openflow.FlowMod{Command: openflow.FlowModify, RuleID: 11, Rule: rule(24, dst24, 1, nat)}, false, true},
		{"delete", openflow.FlowMod{Command: openflow.FlowDelete, RuleID: 12}, false, true},
		{"delete of an unknown rule", openflow.FlowMod{Command: openflow.FlowDelete, RuleID: 99}, true, true},
		{"modify of an unknown rule", openflow.FlowMod{Command: openflow.FlowModify, RuleID: 77, Rule: rule(8, dst24, 1, nil)}, true, true},
		{"duplicate add", openflow.FlowMod{Command: openflow.FlowAdd, RuleID: 11, Rule: rule(24, dst24, 2, nil)}, true, true},
		{"modify drops it, moves priority and match", openflow.FlowMod{Command: openflow.FlowModify, RuleID: 11, Rule: rule(30, Match{InPort: 1, DstPrefix: dst24.DstPrefix}, 2, nil)}, false, false},
	} {
		f := tc.f
		f.Switch = sw
		before := mon.Handle().Current()
		hooks.OnFlowMod(sw, &f)
		if published := mon.Handle().Current() != before; published == tc.fails {
			t.Fatalf("%s: published=%v for an edit that fails=%v", tc.name, published, tc.fails)
		}
		// The pipe is synchronous: a rejected FlowMod's Error reply must be
		// read before the Barrier can be written.
		if _, err := c.SendFlowMod(&f); err != nil {
			t.Fatal(err)
		}
		if tc.fails {
			if m, err := c.Recv(); err != nil || m.Type != openflow.TypeError {
				t.Fatalf("%s: agent answered %v, %v; want an Error", tc.name, m, err)
			}
		}
		xid, err := c.SendBarrierRequest()
		if err != nil {
			t.Fatal(err)
		}
		if m, err := c.Recv(); err != nil || m.Type != openflow.TypeBarrierReply || m.Xid != xid {
			t.Fatalf("%s: agent answered %v, %v; want the BarrierReply", tc.name, m, err)
		}
		agent.Mu.Lock()
		got := fabric.Switch(sw).Config.Table.Rules()
		equal := reflect.DeepEqual(got, logical[sw].Table.Rules())
		agent.Mu.Unlock()
		if !equal {
			t.Fatalf("%s: agent table %v, proxy's logical table %v", tc.name, got, logical[sw].Table.Rules())
		}
		var want *header.Rewrite
		if tc.nat11 {
			want = nat
		}
		if r := logical[sw].Table.Get(11); !reflect.DeepEqual(r.Rewrite, want) {
			t.Fatalf("%s: rule 11 is %v, want rewrite %v", tc.name, r, want)
		}
	}
	if r := logical[sw].Table.Get(11); r == nil || r.Rewrite != nil || r.Match.InPort != 1 {
		t.Fatalf("rule 11 after the modifies: %v", r)
	}
}

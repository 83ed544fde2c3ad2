package main

// Everything the server is fed is made here, from the seed: the rule set
// as FlowMods, the reference path table built from exactly those FlowMods,
// the flow population, the faulted copy of the data plane, and the
// per-sender datagram streams.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"veridp/internal/bloom"
	"veridp/internal/controller"
	"veridp/internal/core"
	"veridp/internal/dataplane"
	"veridp/internal/faults"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/openflow"
	"veridp/internal/packet"
	"veridp/internal/topo"
	"veridp/internal/traffic"
)

const (
	populationSize = 65536 // 16× the 4096-slot verdict cache
	zipfExponent   = 1.2
	streamLen      = 1 << 19 // datagram indices per sender, cycled
	faultFraction  = 0.05
	faultySwitches = 4
	maxFaultFlows  = 512
	churnRules     = 32
	probeEvery     = 20 // zipf_churn: 1 datagram in 20 probes the toggled rule
)

// workload names one traffic mix; later issues refer to these names.
type workload struct {
	name   string
	zipf   bool
	churn  bool
	faults bool
}

var workloads = []workload{
	{name: "zipf_steady", zipf: true},
	{name: "uniform_steady"},
	{name: "zipf_churn", zipf: true, churn: true},
	{name: "fault_mix", zipf: true, faults: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// flowModLog is a controller.Installer that only records what it is told
// to install, so the controller's own route computation produces the rule
// set without touching any data plane.
type flowModLog struct{ mods []*openflow.FlowMod }

func (l *flowModLog) Apply(f *openflow.FlowMod) error {
	c := *f
	l.mods = append(l.mods, &c)
	return nil
}

func (l *flowModLog) Barrier(topo.SwitchID) error { return nil }

// ruleSet is the fixed control-plane input: the topology, the FlowMods
// grouped by target switch in streaming order, and the reference table.
type ruleSet struct {
	net      *topo.Network
	switches []topo.SwitchID
	mods     map[topo.SwitchID][]*openflow.FlowMod
	routed   []*topo.Host      // hosts that have /32 routes
	tailRule *openflow.FlowMod // the rule the quiet FlowMod tail toggles

	refFabric *dataplane.Fabric // holds the reference per-switch configs
	ref       *core.PathTable
	refStats  core.Stats
}

// buildRuleSet computes shortest-path /32 routes on the named fat tree.
// fattree6 routes one host per edge switch (18 of 54: 810 rules); the full
// 2430-rule set costs the unmodified server ~16 s per install, which does
// not fit the per-run budget (see README). fattree4 (the -quick smoke)
// routes every host.
func buildRuleSet(topoName string) (*ruleSet, error) {
	var n *topo.Network
	onePerEdge := false
	switch topoName {
	case "fattree6":
		n, onePerEdge = topo.FatTree(6), true
	case "fattree4":
		n = topo.FatTree(4)
	default:
		return nil, fmt.Errorf("unsupported topology %q", topoName)
	}
	rs := &ruleSet{net: n, mods: make(map[topo.SwitchID][]*openflow.FlowMod)}
	for _, sw := range n.Switches() {
		rs.switches = append(rs.switches, sw.ID)
	}
	log := &flowModLog{}
	ctrl := controller.New(n, log)
	for _, h := range n.Hosts() {
		if onePerEdge && h.Attach.Port != 1 {
			continue
		}
		rs.routed = append(rs.routed, h)
		if _, err := ctrl.RoutePrefix(flowtable.Prefix{IP: h.IP, Len: 32}, h.Attach); err != nil {
			return nil, err
		}
	}
	if len(log.mods) == 0 {
		return nil, fmt.Errorf("%s: no host to route", topoName)
	}
	rs.tailRule = log.mods[0]
	for _, f := range log.mods {
		rs.mods[f.Switch] = append(rs.mods[f.Switch], f)
	}

	var err error
	if rs.refFabric, err = rs.newFabric(); err != nil {
		return nil, err
	}
	rs.ref = rs.buildTable(rs.refFabric)
	rs.refStats = rs.ref.Stats()
	return rs, nil
}

// newFabric returns an emulated data plane holding exactly the rule set,
// installed in-process (no sockets).
func (rs *ruleSet) newFabric() (*dataplane.Fabric, error) {
	f := dataplane.NewFabric(rs.net)
	inst := &dataplane.FabricInstaller{Fabric: f}
	for _, sw := range rs.switches {
		for _, m := range rs.mods[sw] {
			if err := inst.Apply(m); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// buildTable runs Algorithm 2 over the fabric's per-switch configurations.
func (rs *ruleSet) buildTable(f *dataplane.Fabric) *core.PathTable {
	configs := make(map[topo.SwitchID]*flowtable.SwitchConfig, len(rs.switches))
	for _, sw := range rs.switches {
		configs[sw] = f.Switch(sw).Config
	}
	b := &core.Builder{Net: rs.net, Space: header.NewSpace(), Params: bloom.DefaultParams, Configs: configs}
	return b.Build()
}

// datagram is one pre-marshalled tag report and what the reference table
// says the server must answer.
type datagram struct {
	wire      [packet.ReportLen]byte
	violation bool
	blamed    topo.SwitchID // valid when localized
	localized bool
}

// churnRule is one rule zipf_churn deletes and re-adds, with the probe
// that exercises it.
type churnRule struct {
	mod    *openflow.FlowMod // the FlowAdd that installs it
	inport topo.PortKey      // host port on the same edge switch
	hdr    header.Header
}

// trafficSet is everything a workload sends.
type trafficSet struct {
	dgrams  []datagram
	nHealth int        // dgrams[:nHealth] is the healthy population
	streams [][]uint32 // per sender, indices into dgrams
	churn   []churnRule
	faults  []faults.Injected
}

// reportOf injects a header into a fabric and returns the first tag report
// it produces.
func reportOf(f *dataplane.Fabric, at topo.PortKey, h header.Header) (*packet.Report, error) {
	res, err := f.Inject(at, h)
	if err != nil {
		return nil, err
	}
	if len(res.Reports) == 0 {
		return nil, nil
	}
	return res.Reports[0], nil
}

// buildTraffic makes the flow population by varying SrcIP/SrcPort of each
// reference path's witness header, produces every report by injecting the
// header into fabric (the harness data plane whose agents received the
// FlowMods), and labels it with the reference table's verdict.
func buildTraffic(rs *ruleSet, fabric *dataplane.Fabric, mu sync.Locker, w workload, seed int64, senders, population int) (*trafficSet, error) {
	mu.Lock() // the fabric's agents are idle now, but the lock is the fabric's contract
	defer mu.Unlock()
	rng := rand.New(rand.NewSource(seed))
	ts := &trafficSet{}

	// zipf_churn reserves two destinations: their rules are toggled, so
	// background flows must not depend on them.
	reserved := map[uint32]bool{}
	if w.churn {
		if err := ts.pickChurnRules(rs, rng, reserved); err != nil {
			return nil, err
		}
	}

	wits := traffic.Witnesses(rs.ref)
	if len(wits) == 0 {
		return nil, fmt.Errorf("reference table has no witness headers")
	}
	type flow struct {
		in topo.PortKey
		h  header.Header
	}
	seen := make(map[flow]bool, population)
	flows := make([]flow, 0, population)
	for tries := 0; len(flows) < population; tries++ {
		if tries > 8*population {
			return nil, fmt.Errorf("could not make %d distinct verifiable flows", population)
		}
		wt := wits[rng.Intn(len(wits))]
		if reserved[wt.Header.DstIP] {
			continue
		}
		h := wt.Header
		h.SrcIP = rng.Uint32()
		h.SrcPort = uint16(rng.Intn(1 << 16))
		k := flow{wt.Inport, h}
		if seen[k] {
			continue
		}
		r, err := reportOf(fabric, wt.Inport, h)
		if err != nil {
			return nil, err
		}
		if r == nil || !rs.ref.Verify(r).OK {
			continue
		}
		seen[k] = true
		var d datagram
		copy(d.wire[:], r.Marshal())
		ts.dgrams = append(ts.dgrams, d)
		flows = append(flows, k)
	}
	ts.nHealth = len(ts.dgrams)

	if w.faults {
		ff, err := rs.newFabric()
		if err != nil {
			return nil, err
		}
		swIDs := append([]topo.SwitchID(nil), rs.switches...)
		rng.Shuffle(len(swIDs), func(i, j int) { swIDs[i], swIDs[j] = swIDs[j], swIDs[i] })
		for i, sw := range swIDs[:faultySwitches] {
			rules := ff.Switch(sw).Config.Table.Rules()
			id := rules[rng.Intn(len(rules))].ID
			var inj faults.Injected
			if i%2 == 0 {
				inj, err = faults.WrongPort(ff, sw, id, rng)
			} else {
				inj, err = faults.Blackhole(ff, sw, id)
			}
			if err != nil {
				return nil, err
			}
			ts.faults = append(ts.faults, inj)
		}
		for i, fl := range flows {
			if len(ts.dgrams)-ts.nHealth >= maxFaultFlows {
				break
			}
			r, err := reportOf(ff, fl.in, fl.h)
			if err != nil {
				return nil, err
			}
			if r == nil {
				continue // fault sent the packet into the void: no report
			}
			var d datagram
			copy(d.wire[:], r.Marshal())
			if d.wire == ts.dgrams[i].wire {
				continue // this flow never meets a faulted rule
			}
			if v := rs.ref.Verify(r); !v.OK {
				d.violation = true
				d.blamed, _, d.localized = rs.ref.Localize(r)
			}
			ts.dgrams = append(ts.dgrams, d)
		}
		if len(ts.dgrams) == ts.nHealth {
			return nil, fmt.Errorf("faults %v touch no flow of the population", ts.faults)
		}
	}

	// Zipf ranks map to flows through the population's (already random)
	// order; each sender draws its own stream.
	nFault := len(ts.dgrams) - ts.nHealth
	for s := 0; s < senders; s++ {
		srng := rand.New(rand.NewSource(seed*1000 + int64(s) + 1))
		var z *rand.Zipf
		if w.zipf {
			z = rand.NewZipf(srng, zipfExponent, 1, uint64(ts.nHealth-1))
		}
		st := make([]uint32, streamLen)
		for i := range st {
			switch {
			case nFault > 0 && srng.Float64() < faultFraction:
				st[i] = uint32(ts.nHealth + srng.Intn(nFault))
			case z != nil:
				st[i] = uint32(z.Uint64())
			default:
				st[i] = uint32(srng.Intn(ts.nHealth))
			}
		}
		ts.streams = append(ts.streams, st)
	}
	return ts, nil
}

// pickChurnRules chooses two routed destinations and, over the edge
// switches, churnRules of the rules that forward to them.
func (ts *trafficSet) pickChurnRules(rs *ruleSet, rng *rand.Rand, reserved map[uint32]bool) error {
	hosts := append([]*topo.Host(nil), rs.routed...)
	rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	var cands []churnRule
	for _, dst := range hosts[:2] {
		reserved[dst.IP] = true
		for _, in := range rs.net.EdgePorts() {
			if in == dst.Attach || in.Port != pickProbePort(dst.Attach, in.Switch) {
				continue
			}
			for _, m := range rs.mods[in.Switch] {
				if m.Rule.Match.DstPrefix.IP == dst.IP {
					cands = append(cands, churnRule{
						mod:    m,
						inport: in,
						hdr:    header.Header{SrcIP: 0x0a000000 | uint32(len(cands)+1), DstIP: dst.IP, Proto: header.ProtoTCP, SrcPort: 40000, DstPort: 80},
					})
				}
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].mod.RuleID < cands[j].mod.RuleID })
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > churnRules {
		cands = cands[:churnRules]
	}
	if len(cands) == 0 {
		return fmt.Errorf("no edge rule to churn")
	}
	ts.churn = cands
	return nil
}

// pickProbePort is the host port probes enter an edge switch on: port 1,
// unless the destination itself hangs there.
func pickProbePort(dst topo.PortKey, sw topo.SwitchID) topo.PortID {
	if dst.Switch == sw && dst.Port == 1 {
		return 2
	}
	return 1
}

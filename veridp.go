// Package veridp is the public API of this VeriDP reproduction — a tool
// that continuously monitors control-data plane consistency in software
// defined networks (Zhang et al., "Mind the Gap", CoNEXT 2016).
//
// The control plane is abstracted as a path table: for every pair of edge
// ports, the set of paths a packet may legitimately take, each path paired
// with the BDD of headers it admits and a Bloom-filter tag folding its
// hops. The data plane samples real packets at entry switches, updates
// their tags hop by hop, and reports ⟨inport, outport, header, tag⟩ when a
// packet exits (or is dropped, or its TTL expires). The Monitor verifies
// each report against the path table and, on a mismatch, localizes the
// faulty switch by Bloom-guided path inference.
//
// Quick start (an emulated network; see examples/ for complete programs):
//
//	net := veridp.Figure5()
//	em := veridp.NewEmulation(net, veridp.DefaultTagParams)
//	// ... install rules via em.Controller ...
//	mon := em.NewMonitor(veridp.MonitorConfig{
//	    OnViolation: func(v veridp.Violation) { fmt.Println("fault:", v) },
//	})
//	em.Fabric.InjectFromHost("H1", hdr) // reports flow to mon automatically
//
// The heavy lifting lives in internal packages: internal/bdd (header
// sets), internal/bloom (tags), internal/core (path table, verification,
// localization, incremental update), internal/dataplane (switch emulator),
// internal/openflow (southbound channel + interception proxy),
// internal/report (UDP report transport). This facade re-exports the
// vocabulary types so applications only import veridp.
package veridp

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"veridp/internal/bloom"
	"veridp/internal/controller"
	"veridp/internal/core"
	"veridp/internal/dataplane"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/openflow"
	"veridp/internal/packet"
	"veridp/internal/policy"
	"veridp/internal/topo"
)

// Topology vocabulary.
type (
	// Network is the topology graph: switches, ports, links, hosts,
	// middleboxes.
	Network = topo.Network
	// SwitchID identifies a switch.
	SwitchID = topo.SwitchID
	// PortID is a switch-local port number; DropPort is ⊥.
	PortID = topo.PortID
	// PortKey names one port globally.
	PortKey = topo.PortKey
	// Hop is ⟨input_port, switch, output_port⟩.
	Hop = topo.Hop
	// Path is a hop sequence.
	Path = topo.Path
)

// DropPort is the ⊥ pseudo-port packets are dropped to.
const DropPort = topo.DropPort

// Topology builders.
var (
	// NewNetwork returns an empty topology to populate manually.
	NewNetwork = topo.NewNetwork
	// FatTree builds the k-ary fat tree of the paper's §6.1.
	FatTree = topo.FatTree
	// Stanford builds the Stanford-backbone-like topology.
	Stanford = topo.Stanford
	// Internet2 builds the nine-router Internet2-like backbone.
	Internet2 = topo.Internet2
	// Figure5 builds the paper's running example network.
	Figure5 = topo.Figure5
	// Figure7 builds the paper's fault-localization example.
	Figure7 = topo.Figure7
	// Linear builds a switch chain; Ring builds a cycle.
	Linear = topo.Linear
	Ring   = topo.Ring
)

// Packet and rule vocabulary.
type (
	// Header is the TCP/UDP 5-tuple VeriDP verifies over.
	Header = header.Header
	// Rule is one flow entry; Match its matching half; Prefix an IPv4
	// prefix.
	Rule   = flowtable.Rule
	Match  = flowtable.Match
	Prefix = flowtable.Prefix
	// Rewrite pins header fields on forwarding (OpenFlow set-field; the
	// future-work extension implemented here — see internal/header).
	Rewrite = header.Rewrite
	// Report is the ⟨inport, outport, header, tag⟩ tag report.
	Report = packet.Report
	// TagParams configures the Bloom-filter tag scheme.
	TagParams = bloom.Params
	// Tag is a Bloom-filter packet tag.
	Tag = bloom.Tag
)

// Rule actions.
const (
	ActOutput = flowtable.ActOutput
	ActDrop   = flowtable.ActDrop
)

// DefaultTagParams is the paper's prototype configuration: 16-bit tags
// carried in a VLAN TCI.
var DefaultTagParams = bloom.DefaultParams

// ParseIP converts dotted-quad notation to the uint32 addresses Header
// uses; MustParseIP panics on malformed input.
var (
	ParseIP     = header.ParseIP
	MustParseIP = header.MustParseIP
)

// Intent layer (Figure 1's I→R stage): declarative policies that compile
// to rules and statically check I = R against the path table, while the
// Monitor guards R = F at runtime.
type (
	// Policy is one piece of operator intent; PolicySuite bundles them.
	Policy      = policy.Policy
	PolicySuite = policy.Suite
	// Reachability, Isolation, and Waypoint are the built-in intent
	// classes of the paper's §2.3.
	Reachability   = policy.Reachability
	Isolation      = policy.Isolation
	WaypointIntent = policy.Waypoint
)

// Violation describes one failed verification, with localization output.
type Violation struct {
	Report *Report
	// Reason is the Algorithm 3 failure class.
	Reason string
	// Localized reports whether path inference recovered candidate paths.
	Localized bool
	// FaultySwitch is the blamed switch when Localized.
	FaultySwitch SwitchID
	// Candidates are the tag-consistent paths the packet may have taken.
	Candidates []Path
}

// MonitorConfig configures a Monitor.
type MonitorConfig struct {
	// Params selects the tag scheme; zero value means DefaultTagParams.
	Params TagParams
	// OnViolation, if set, fires for every failed verification.
	OnViolation func(Violation)
	// OnVerified, if set, fires for every passed verification.
	OnVerified func(*Report)
}

// Monitor is the VeriDP verification server: a path table plus the
// verdict plumbing. Safe for concurrent use from any number of goroutines:
// report verification runs lock-free against an atomically-published
// snapshot of the path table (core.Handle), so a stream of HandleReport
// calls scales with cores and never blocks behind a table rebuild.
type Monitor struct {
	cfg MonitorConfig

	handle *core.Handle
	net    *Network

	verified atomic.Uint64
	violated atomic.Uint64

	mu      sync.Mutex
	reasons map[string]uint64    // guarded by mu
	blames  map[SwitchID]uint64  // guarded by mu
	caches  []*core.VerdictCache // guarded by mu; one per BatchHandler worker
}

// NewMonitor builds a monitor over the network and the control plane's
// logical per-switch configurations (as maintained by Controller.Logical,
// or as LoadRules restores them), running Algorithm 2 over them.
// ProxyHooks edits logical in place.
func NewMonitor(net *Network, logical map[SwitchID]*flowtable.SwitchConfig, cfg MonitorConfig) *Monitor {
	if cfg.Params == (TagParams{}) {
		cfg.Params = DefaultTagParams
	}
	b := &core.Builder{
		Net:     net,
		Space:   header.NewSpace(),
		Params:  cfg.Params,
		Configs: logical,
	}
	return &Monitor{
		cfg:     cfg,
		handle:  core.NewHandle(b.Build()),
		net:     net,
		reasons: make(map[string]uint64),
		blames:  make(map[SwitchID]uint64),
	}
}

// HandleReport verifies one tag report, dispatching the configured
// callbacks. It implements the data plane's report-sink interface, so a
// Monitor can be wired directly into an Emulation or a UDP collector. The
// verification itself is lock-free and allocation-free (the Figure 13
// hot path); only a failed report takes the monitor's locks, for
// localization and the violation breakdowns. Callbacks run with every
// lock released, so they may call back into the Monitor (e.g. OnViolation
// invoking Repair for self-healing).
func (m *Monitor) HandleReport(r *Report) {
	m.tally(r, m.handle.Current().Verify(r))
}

// BatchHandler returns a batch-verification closure for one collector
// worker — the factory report.NewCollector expects. Each closure owns a
// private verdict cache (single-writer: no atomics on the probe path) and
// a reusable verdict buffer; the whole batch is verified against one
// pinned snapshot via core.Snapshot.VerifyBatch, then tallied through the
// same callback plumbing as HandleReport. Reports passed to callbacks are
// only valid until the handler returns, exactly as the collector's batch
// contract states.
func (m *Monitor) BatchHandler() func([]Report) {
	cache := core.NewVerdictCache(0)
	m.mu.Lock()
	m.caches = append(m.caches, cache)
	m.mu.Unlock()
	var verdicts []core.Verdict
	return func(batch []Report) {
		if cap(verdicts) < len(batch) {
			verdicts = make([]core.Verdict, len(batch))
		}
		out := verdicts[:len(batch)]
		m.handle.Current().VerifyBatch(cache, batch, out)
		for i := range batch {
			m.tally(&batch[i], out[i])
		}
	}
}

// tally routes one verdict into the counters, localization, and callbacks.
func (m *Monitor) tally(r *Report, v core.Verdict) {
	if v.OK {
		m.verified.Add(1)
		if cb := m.cfg.OnVerified; cb != nil {
			cb(r)
		}
		return
	}
	m.violated.Add(1)
	m.mu.Lock()
	m.reasons[v.Reason.String()]++
	m.mu.Unlock()
	// Localize builds no BDD: it walks Net, Configs and Params. Inspect is
	// held because ProxyHooks edits the logical Configs under that lock.
	var sw SwitchID
	var candidates []Path
	var ok bool
	m.handle.Inspect(func(pt *core.PathTable) {
		sw, candidates, ok = pt.Localize(r)
	})
	if ok {
		m.mu.Lock()
		m.blames[sw]++
		m.mu.Unlock()
	}
	if cb := m.cfg.OnViolation; cb != nil {
		cb(Violation{
			Report:       r,
			Reason:       v.Reason.String(),
			Localized:    ok,
			FaultySwitch: sw,
			Candidates:   candidates,
		})
	}
}

// Verify checks one report without firing callbacks, returning whether it
// passed and the failure reason otherwise. Lock-free.
func (m *Monitor) Verify(r *Report) (bool, string) {
	v := m.handle.Current().Verify(r)
	return v.OK, v.Reason.String()
}

// Stats returns the running verified/violated counters.
func (m *Monitor) Stats() (verified, violated uint64) {
	return m.verified.Load(), m.violated.Load()
}

// PathTable exposes the underlying table for inspection (stats, entries).
// Callers must not use it concurrently with HandleReport or rule updates;
// concurrent deployments read through Handle instead.
func (m *Monitor) PathTable() *core.PathTable { return m.handle.Table() }

// Handle exposes the snapshot-publication handle, for callers that verify
// reports or apply FlowMods from their own goroutines.
func (m *Monitor) Handle() *core.Handle { return m.handle }

// WriteMetrics emits the monitor's counters in the Prometheus text
// exposition format: verified/violated totals, violations by reason,
// localizations by blamed switch, path-table gauges, and the FlowMods the
// proxy hooks applied by the way the table followed each (see
// core.FlowModPaths).
func (m *Monitor) WriteMetrics(w io.Writer) error {
	// The published snapshot carries its own totals and the FlowMod
	// counters are atomics, so a scrape never waits for the update lock.
	st := m.handle.Current().Stats()
	paths := m.handle.FlowModPaths()
	m.mu.Lock()
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE veridp_reports_verified_total counter\n")
	fmt.Fprintf(&b, "veridp_reports_verified_total %d\n", m.verified.Load())
	fmt.Fprintf(&b, "# TYPE veridp_reports_violated_total counter\n")
	fmt.Fprintf(&b, "veridp_reports_violated_total %d\n", m.violated.Load())
	var hits, misses uint64
	for _, c := range m.caches {
		hits += c.Hits()
		misses += c.Misses()
	}
	fmt.Fprintf(&b, "# TYPE veridp_cache_hits_total counter\n")
	fmt.Fprintf(&b, "veridp_cache_hits_total %d\n", hits)
	fmt.Fprintf(&b, "# TYPE veridp_cache_misses_total counter\n")
	fmt.Fprintf(&b, "veridp_cache_misses_total %d\n", misses)
	fmt.Fprintf(&b, "# TYPE veridp_violations_total counter\n")
	reasons := make([]string, 0, len(m.reasons))
	for r := range m.reasons {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(&b, "veridp_violations_total{reason=%q} %d\n", r, m.reasons[r])
	}
	fmt.Fprintf(&b, "# TYPE veridp_blamed_total counter\n")
	ids := make([]SwitchID, 0, len(m.blames))
	for id := range m.blames {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		name := fmt.Sprintf("S%d", id)
		if sw := m.net.Switch(id); sw != nil {
			name = sw.Name
		}
		fmt.Fprintf(&b, "veridp_blamed_total{switch=%q} %d\n", name, m.blames[id])
	}
	fmt.Fprintf(&b, "# TYPE veridp_path_table_pairs gauge\n")
	fmt.Fprintf(&b, "veridp_path_table_pairs %d\n", st.Pairs)
	fmt.Fprintf(&b, "# TYPE veridp_path_table_paths gauge\n")
	fmt.Fprintf(&b, "veridp_path_table_paths %d\n", st.Paths)
	fmt.Fprintf(&b, "# TYPE veridp_flowmods_total counter\n")
	fmt.Fprintf(&b, "veridp_flowmods_total{path=\"delta\"} %d\n", paths.Delta)
	fmt.Fprintf(&b, "veridp_flowmods_total{path=\"rerun\"} %d\n", paths.Rerun)
	fmt.Fprintf(&b, "veridp_flowmods_total{path=\"rebuild\"} %d\n", paths.Rebuild)
	m.mu.Unlock()
	// The write happens after release: w is typically a network-backed
	// ResponseWriter, and a slow scraper must not stall verification.
	_, err := io.WriteString(w, b.String())
	return err
}

// ServeHTTP serves the metrics, making a Monitor mountable at /metrics.
func (m *Monitor) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	m.WriteMetrics(w)
}

// RuleInstaller is the southbound surface Repair pushes FlowMods through;
// dataplane.FabricInstaller and controller.Server both satisfy it.
type RuleInstaller = core.RuleInstaller

// Repair localizes the failure behind a report and re-asserts the logical
// rule on the blamed switch through the installer — the paper's
// future-work item (2), automatic flow-table repair. It returns the blamed
// switch.
func (m *Monitor) Repair(r *Report, inst RuleInstaller) (SwitchID, error) {
	// Plan under the update lock (planning reads the path table and builds
	// BDDs), push the FlowMods outside it: the installer may write to a
	// real southbound channel, and one stuck switch must not wedge table
	// updates for all the others.
	var plan *core.RepairPlan
	var err error
	m.handle.Inspect(func(pt *core.PathTable) { plan, err = pt.PlanRepair(r) })
	if err != nil {
		return 0, err
	}
	if err := plan.Apply(inst); err != nil {
		return 0, err
	}
	return plan.Switch, nil
}

// ProxyHooks returns interception hooks that keep the path table in step
// with the FlowMods passing through the southbound proxy — the deployment
// of Figure 4, where the VeriDP server sits on the OpenFlow channel. Each
// FlowMod goes to core.Handle.ApplyFlowMod, which edits the monitor's own
// logical configurations (the map NewMonitor was given): a rule of any
// shape updates the table by the difference it makes at its switch (§4.4),
// a re-run of Algorithm 2 takes over while some rule rewrites headers, and
// the result is published as one snapshot. A FlowMod the logical table
// rejects (a delete of an unknown rule ID, say) changes nothing and
// publishes nothing. The logical argument is ignored; it stays for existing
// callers such as bench/mirror.go.
func (m *Monitor) ProxyHooks(logical map[SwitchID]*flowtable.SwitchConfig) openflow.ProxyHooks {
	return openflow.ProxyHooks{OnFlowMod: func(sw SwitchID, f *openflow.FlowMod) {
		// The error is the rejected edit's; the switch answers the same
		// FlowMod with its own, which the proxy relays to the controller.
		_ = m.handle.ApplyFlowMod(sw, f)
	}}
}

// Emulation bundles an emulated data plane with a controller — the
// Mininet-equivalent playground every example runs on.
type Emulation struct {
	Net        *Network
	Fabric     *dataplane.Fabric
	Controller *controller.Controller

	monitor *Monitor
}

// NewEmulation builds switches for every topology node and a controller
// wired to them through the in-process southbound path.
func NewEmulation(net *Network, params TagParams) *Emulation {
	em := &Emulation{Net: net}
	em.Fabric = dataplane.NewFabric(net,
		dataplane.WithParams(params),
		dataplane.WithReportSink(dataplane.ReportFunc(func(r *Report) {
			if em.monitor != nil {
				em.monitor.HandleReport(r)
			}
		})),
	)
	em.Controller = controller.New(net, &dataplane.FabricInstaller{Fabric: em.Fabric})
	return em
}

// NewMonitor builds a Monitor from the emulation's current logical rules
// and attaches it so every future tag report is verified automatically.
func (em *Emulation) NewMonitor(cfg MonitorConfig) *Monitor {
	if cfg.Params == (TagParams{}) {
		cfg.Params = em.Fabric.Params
	}
	m := NewMonitor(em.Net, em.Controller.Logical(), cfg)
	em.monitor = m
	return m
}

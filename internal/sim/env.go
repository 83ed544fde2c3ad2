// Package sim assembles complete VeriDP deployments — topology, emulated
// data plane, controller, and path table — and runs the paper's §6
// experiments over them: detection accuracy (Figure 12), fault
// localization (Table 3), the §6.2 function tests, and the incremental
// update measurements (Figure 14).
//
// The Stanford and Internet2 environments are synthetic stand-ins for the
// paper's proprietary configuration snapshots: same topology structure,
// parameterizable rule scale with the published counts as the "full"
// setting (see DESIGN.md, "Substitutions").
package sim

import (
	"fmt"
	"math/rand"

	"veridp/internal/bloom"
	"veridp/internal/controller"
	"veridp/internal/core"
	"veridp/internal/dataplane"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/topo"
)

// defaultBloom returns the paper's prototype tag configuration.
func defaultBloom() bloom.Params { return bloom.DefaultParams }

// controllerFor wires a controller to an existing fabric.
func controllerFor(n *topo.Network, f *dataplane.Fabric) *controller.Controller {
	return controller.New(n, &dataplane.FabricInstaller{Fabric: f})
}

// Env is one ready-to-measure deployment.
type Env struct {
	Name   string
	Net    *topo.Network
	Fabric *dataplane.Fabric
	Ctrl   *controller.Controller
	Space  *header.Space
	Params bloom.Params

	table  *core.PathTable
	handle *core.Handle
}

// Table returns the path table, building it on first use (construction is
// the expensive step Table 2 measures, so callers time Build explicitly
// when they care).
func (e *Env) Table() *core.PathTable {
	if e.table == nil {
		e.table = e.Build()
	}
	return e.table
}

// Build constructs a fresh path table from the controller's logical view.
func (e *Env) Build() *core.PathTable {
	b := &core.Builder{Net: e.Net, Space: e.Space, Params: e.Params, Configs: e.Ctrl.Logical()}
	return b.Build()
}

// Handle wraps the path table in a snapshot-publishing core.Handle,
// building both on first use. Once a Handle exists, concurrent-safe
// callers go through it; Table remains for single-threaded measurement
// code, and both views share the same underlying table.
func (e *Env) Handle() *core.Handle {
	if e.handle == nil {
		e.handle = core.NewHandle(e.Table())
	}
	return e.handle
}

// newEnv wires the common plumbing. Extra fabric options (capture taps,
// samplers, clocks) append after the params option.
func newEnv(name string, n *topo.Network, params bloom.Params, opts ...dataplane.Option) *Env {
	f := dataplane.NewFabric(n, append([]dataplane.Option{dataplane.WithParams(params)}, opts...)...)
	c := controller.New(n, &dataplane.FabricInstaller{Fabric: f})
	return &Env{
		Name:   name,
		Net:    n,
		Fabric: f,
		Ctrl:   c,
		Space:  header.NewSpace(),
		Params: params,
	}
}

// CustomEnv wraps an arbitrary topology (e.g. one loaded from a netfile
// document) in an Env; the caller installs rules through Ctrl.
func CustomEnv(name string, n *topo.Network, params bloom.Params, opts ...dataplane.Option) *Env {
	return newEnv(name, n, params, opts...)
}

// FatTreeEnv builds FT(k) with shortest-path /32 routes for every host —
// the §6.1 fat-tree setup.
func FatTreeEnv(k int, params bloom.Params, opts ...dataplane.Option) (*Env, error) {
	e := newEnv(fmt.Sprintf("FT(k=%d)", k), topo.FatTree(k), params, opts...)
	if err := e.Ctrl.RouteAllHosts(); err != nil {
		return nil, err
	}
	return e, nil
}

// StanfordScale parameterizes the Stanford-like environment.
type StanfordScale struct {
	HostsPerRouter   int // edge ports per zone router
	SubnetsPerRouter int // /24 rules carved from each router's /16
	ACLRules         int // deny rules spread across zone routers
	// ServicePolicies adds port-specific redirects (a service class routed
	// via the other backbone), reproducing the multi-path-per-pair
	// structure Figure 6 shows for the real configuration.
	ServicePolicies int
	Seed            int64
	// Rng, when non-nil, supplies the randomness instead of Seed — for
	// harnesses threading one deterministic stream through several builds.
	Rng *rand.Rand
}

// StanfordDefault keeps experiments laptop-fast while preserving the
// topology structure and rule nesting of the full configuration.
var StanfordDefault = StanfordScale{HostsPerRouter: 3, SubnetsPerRouter: 24, ACLRules: 48, ServicePolicies: 24, Seed: 1}

// StanfordFull approximates the published scale: 14 routers × 2080 subnets
// × 26 switches ≈ 757K forwarding rules, 1584 ACLs.
var StanfordFull = StanfordScale{HostsPerRouter: 8, SubnetsPerRouter: 2080, ACLRules: 1584, ServicePolicies: 96, Seed: 1}

// StanfordEnv builds the Stanford-backbone-like environment: every zone
// router owns a /16 sliced into /24 subnets routed network-wide, plus
// random deny ACLs on zone-router uplink ports.
func StanfordEnv(scale StanfordScale, params bloom.Params, opts ...dataplane.Option) (*Env, error) {
	n := topo.Stanford(scale.HostsPerRouter)
	e := newEnv("Stanford", n, params, opts...)
	rng := rngOr(scale.Rng, scale.Seed)

	for idx := 0; idx < 14; idx++ {
		base, _ := topo.StanfordSubnet(idx)
		routerName := topo.StanfordZones[idx/2] + map[int]string{0: "a", 1: "b"}[idx%2]
		router := n.SwitchByName(routerName)
		for j := 0; j < scale.SubnetsPerRouter; j++ {
			pfx := flowtable.Prefix{IP: base | uint32(j)<<8, Len: 24}
			// Subnets rotate across the router's host ports.
			attach := topo.PortKey{Switch: router.ID, Port: topo.PortID(3 + j%scale.HostsPerRouter)}
			if _, err := e.Ctrl.RoutePrefix(pfx, attach); err != nil {
				return nil, err
			}
		}
	}

	// Service policies: a source zone router steers one service class
	// toward a remote zone over the bbrb-side uplink (port 2) while bulk
	// traffic rides bbra — so affected inport-outport pairs carry two
	// paths, as Figure 6 shows for the real configuration.
	servicePorts := []uint16{22, 80, 443, 8080}
	type policyKey struct {
		router int
		zone   int
		port   uint16
	}
	seenPolicy := map[policyKey]bool{}
	for i := 0; i < scale.ServicePolicies; i++ {
		src := rng.Intn(14)
		dst := rng.Intn(14)
		if dst/2 == src/2 {
			continue // intra-zone traffic never leaves the router pair
		}
		port := servicePorts[rng.Intn(len(servicePorts))]
		k := policyKey{src, dst, port}
		if seenPolicy[k] {
			continue
		}
		seenPolicy[k] = true
		routerName := topo.StanfordZones[src/2] + map[int]string{0: "a", 1: "b"}[src%2]
		router := n.SwitchByName(routerName)
		dstBase, dstLen := topo.StanfordSubnet(dst)
		if _, err := e.Ctrl.InstallRule(router.ID, flowtable.Rule{
			Priority: 100,
			Match: flowtable.Match{
				DstPrefix: flowtable.Prefix{IP: dstBase, Len: dstLen},
				HasDst:    true,
				DstPort:   port,
			},
			Action:  flowtable.ActOutput,
			OutPort: 2, // the bbrb-side uplink
		}); err != nil {
			return nil, err
		}
	}

	// Random deny ACLs on zone-router uplinks: drop a random foreign /16's
	// traffic to one local /24, mirrored on logical and physical configs
	// (ACLs are configured state, not FlowMods).
	for i := 0; i < scale.ACLRules; i++ {
		idx := rng.Intn(14)
		routerName := topo.StanfordZones[idx/2] + map[int]string{0: "a", 1: "b"}[idx%2]
		router := n.SwitchByName(routerName)
		srcIdx := rng.Intn(14)
		srcBase, srcLen := topo.StanfordSubnet(srcIdx)
		dstBase, _ := topo.StanfordSubnet(idx)
		acl := flowtable.ACLRule{
			Match: flowtable.Match{
				SrcPrefix: flowtable.Prefix{IP: srcBase, Len: srcLen},
				DstPrefix: flowtable.Prefix{IP: dstBase | uint32(rng.Intn(scale.SubnetsPerRouter))<<8, Len: 24},
			},
			Permit: false,
		}
		// A third of the denies are port-specific, like real ACLs mixing
		// host blocks with service blocks.
		if rng.Intn(3) == 0 {
			acl.Match.HasDst = true
			acl.Match.DstPort = uint16(1 + rng.Intn(1024))
		}
		uplink := topo.PortID(1 + rng.Intn(2))
		e.Ctrl.Logical()[router.ID].InACL[uplink] = append(e.Ctrl.Logical()[router.ID].InACL[uplink], acl)
		phys := e.Fabric.Switch(router.ID).Config
		phys.InACL[uplink] = append(phys.InACL[uplink], acl)
	}
	return e, nil
}

// Internet2Scale parameterizes the Internet2-like environment.
type Internet2Scale struct {
	HostsPerRouter int
	Prefixes       int // global IPv4 prefixes, each anchored at one PoP
	// ServicePolicies pins a service class from one PoP's customers onto
	// an alternate equal-length path (per-hop rules), giving some
	// inport-outport pairs a second path as in Figure 6.
	ServicePolicies int
	Seed            int64
	// Rng, when non-nil, supplies the randomness instead of Seed.
	Rng *rand.Rand
}

// Internet2Default is laptop-fast; Internet2Full reproduces the published
// 126,017-rule order of magnitude (9 routers × 14K prefixes).
var (
	Internet2Default = Internet2Scale{HostsPerRouter: 2, Prefixes: 96, ServicePolicies: 12, Seed: 2}
	Internet2Full    = Internet2Scale{HostsPerRouter: 4, Prefixes: 14000, ServicePolicies: 48, Seed: 2}
)

// Internet2Env builds the Internet2-like environment: random global
// prefixes with a realistic length mix (/16–/24), each exiting at one PoP.
func Internet2Env(scale Internet2Scale, params bloom.Params, opts ...dataplane.Option) (*Env, error) {
	n := topo.Internet2(scale.HostsPerRouter)
	e := newEnv("Internet2", n, params, opts...)
	rng := rngOr(scale.Rng, scale.Seed)

	seen := map[flowtable.Prefix]bool{}
	for i := 0; i < scale.Prefixes; i++ {
		// Length mix roughly matching public BGP tables: /24-heavy.
		var plen int
		switch r := rng.Intn(10); {
		case r < 5:
			plen = 24
		case r < 7:
			plen = 22
		case r < 9:
			plen = 20
		default:
			plen = 16
		}
		// Anchor prefixes outside 10/8 so PoP-local subnets keep priority.
		pfx := flowtable.Prefix{IP: (uint32(rng.Intn(120)+60) << 24) | rng.Uint32()&0x00ffffff, Len: plen}.Canonical()
		if seen[pfx] {
			continue
		}
		seen[pfx] = true
		pop := rng.Intn(len(topo.Internet2Routers))
		router := n.SwitchByName(topo.Internet2Routers[pop])
		attach := topo.PortKey{Switch: router.ID, Port: topo.PortID(5 + rng.Intn(scale.HostsPerRouter))}
		if _, err := e.Ctrl.RoutePrefix(pfx, attach); err != nil {
			return nil, err
		}
	}
	// PoP-local subnets so hosts are reachable.
	if err := e.Ctrl.RouteAllHosts(); err != nil {
		return nil, err
	}

	// Service policies: pin a service class from one host edge onto the
	// second equal-cost path toward another host, hop by hop (loop-safe by
	// construction), so those pairs carry two paths.
	hosts := n.Hosts()
	installed := 0
	for attempt := 0; attempt < scale.ServicePolicies*8 && installed < scale.ServicePolicies; attempt++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		if src == dst || src.Attach.Switch == dst.Attach.Switch {
			continue
		}
		paths, err := n.ShortestPaths(src.Attach, dst.Attach, 2)
		if err != nil || len(paths) < 2 {
			continue
		}
		m := flowtable.Match{
			SrcPrefix: flowtable.Prefix{IP: src.IP, Len: 32},
			DstPrefix: flowtable.Prefix{IP: dst.IP, Len: 32},
			HasDst:    true,
			DstPort:   443,
		}
		if _, err := e.Ctrl.InstallPathRules(paths[1], m, 20000); err != nil {
			return nil, err
		}
		installed++
	}
	return e, nil
}

// Figure5Env builds the toy network of Figure 5 with its ten-rule policy —
// used by the quickstart example and documentation.
func Figure5Env(params bloom.Params, opts ...dataplane.Option) (*Env, error) {
	n := topo.Figure5()
	e := newEnv("Figure5", n, params, opts...)
	s1 := n.SwitchByName("S1").ID
	s2 := n.SwitchByName("S2").ID
	s3 := n.SwitchByName("S3").ID
	type install struct {
		sw topo.SwitchID
		r  flowtable.Rule
	}
	rules := []install{
		{s1, flowtable.Rule{Priority: 30, Match: flowtable.Match{DstPrefix: flowtable.Prefix{IP: 0x0a000101, Len: 32}}, Action: flowtable.ActOutput, OutPort: 1}},
		{s1, flowtable.Rule{Priority: 30, Match: flowtable.Match{DstPrefix: flowtable.Prefix{IP: 0x0a000102, Len: 32}}, Action: flowtable.ActOutput, OutPort: 2}},
		{s1, flowtable.Rule{Priority: 20, Match: flowtable.Match{DstPrefix: flowtable.Prefix{IP: 0x0a000200, Len: 24}, HasDst: true, DstPort: 22}, Action: flowtable.ActOutput, OutPort: 3}},
		{s1, flowtable.Rule{Priority: 10, Match: flowtable.Match{DstPrefix: flowtable.Prefix{IP: 0x0a000200, Len: 24}}, Action: flowtable.ActOutput, OutPort: 4}},
		{s2, flowtable.Rule{Priority: 10, Match: flowtable.Match{InPort: 1}, Action: flowtable.ActOutput, OutPort: 3}},
		{s2, flowtable.Rule{Priority: 10, Match: flowtable.Match{InPort: 3}, Action: flowtable.ActOutput, OutPort: 2}},
		{s3, flowtable.Rule{Priority: 30, Match: flowtable.Match{SrcPrefix: flowtable.Prefix{IP: 0x0a000102, Len: 32}}, Action: flowtable.ActDrop}},
		{s3, flowtable.Rule{Priority: 20, Match: flowtable.Match{DstPrefix: flowtable.Prefix{IP: 0x0a000200, Len: 24}}, Action: flowtable.ActOutput, OutPort: 2}},
		{s3, flowtable.Rule{Priority: 10, Match: flowtable.Match{DstPrefix: flowtable.Prefix{IP: 0x0a000100, Len: 24}}, Action: flowtable.ActOutput, OutPort: 3}},
		{s1, flowtable.Rule{Priority: 5, Action: flowtable.ActDrop}},
	}
	for _, in := range rules {
		if _, err := e.Ctrl.InstallRule(in.sw, in.r); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Path-table construction: Algorithm 2. From every edge port, inject the
// all-match header set and recursively push it through transfer predicates,
// splitting at each switch by output port, until it exits at an edge port
// or the ⊥ drop port. Loops are cut as in §6.1: a traversal never enters
// the same switch port twice on one path.

package core

import (
	"veridp/internal/bdd"
	"veridp/internal/bloom"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/topo"
)

// Builder assembles a PathTable from the control plane's logical view.
type Builder struct {
	Net    *topo.Network
	Space  *header.Space
	Params bloom.Params
	// Configs is the logical per-switch configuration (rules + ACLs).
	Configs map[topo.SwitchID]*flowtable.SwitchConfig
}

// Build runs Algorithm 2 from every edge port.
func (b *Builder) Build() *PathTable {
	pt := newPathTable(b.Net, b.Space, b.Params, b.Configs)
	for sw, cfg := range b.Configs {
		pt.transfer[sw] = cfg.TransferFuncs(b.Space)
	}
	pt.traverseAll()
	return pt
}

// retraverse re-runs Algorithm 2 into a new table over pt's network,
// configurations and header space. Only switch sw's transfer functions are
// recomputed from its configuration: every other switch's rules are the
// ones its cached functions were computed (or §4.4-patched) for. The new
// table takes over pt's transfer cache, so pt must not be updated again.
func (pt *PathTable) retraverse(sw topo.SwitchID) *PathTable {
	n := newPathTable(pt.Net, pt.Space, pt.Params, pt.Configs)
	for s, tf := range pt.transfer {
		n.transfer[s] = tf
	}
	n.transfer[sw] = pt.Configs[sw].TransferFuncs(pt.Space)
	n.traverseAll()
	return n
}

// traverseAll runs Algorithm 2's search from every edge port.
func (pt *PathTable) traverseAll() {
	for _, inport := range pt.Net.EdgePorts() {
		visited := map[topo.PortKey]bool{inport: true}
		pt.traverse(inport, inport, pt.Space.All(), nil, 0, visited)
	}
}

// traverse is Algorithm 2's recursive search, shared by initial
// construction and §4.4's incremental re-traversal. visited guards against
// control-plane loops (a port entered twice ends the branch).
func (pt *PathTable) traverse(inport, at topo.PortKey, h bdd.Ref, prefix topo.Path, tag bloom.Tag, visited map[topo.PortKey]bool) {
	s := at.Switch
	x := at.Port
	pt.addArrival(s, &arrival{
		Inport:  inport,
		At:      x,
		Headers: h,
		Prefix:  append(topo.Path(nil), prefix...),
		Tag:     tag,
	})

	tp := pt.transfer[s]
	sw := pt.Net.Switch(s)
	outs := append(sw.Ports(), topo.DropPort)
	for _, y := range outs {
		for _, te := range tp[flowtable.PortPair{In: x, Out: y}] {
			h2 := pt.Space.T.And(h, te.Guard)
			if h2 == bdd.False {
				continue
			}
			// Rewrites apply as the packet leaves: the continuation (and
			// any recorded path entry) carries the transformed set.
			h3 := pt.Space.Transform(h2, te.Rewrite)
			pt.extend(inport, at, y, h3, prefix, tag, visited)
		}
	}
}

// extend pushes a header set out of one port: it appends the hop, updates
// the tag, and either records a finished path (edge port, ⊥, or dead end)
// or recurses into the next switch.
func (pt *PathTable) extend(inport, at topo.PortKey, y topo.PortID, h bdd.Ref, prefix topo.Path, tag bloom.Tag, visited map[topo.PortKey]bool) {
	s := at.Switch
	hop := topo.Hop{In: at.Port, Switch: s, Out: y}
	tag2 := tag.Union(pt.Params.Hash(hop.Bytes()))
	path2 := append(prefix, hop)
	outKey := topo.PortKey{Switch: s, Port: y}

	if y == topo.DropPort || pt.Net.IsEdgePort(outKey) {
		pt.addPath(inport, outKey, h, path2, tag2)
		return
	}
	next, ok := pt.Net.Peer(outKey)
	if !ok {
		// Output to a port with nothing attached: the control plane says
		// these packets leave the network unobserved. Record the path so
		// operators can audit it; no report will ever match it.
		pt.addPath(inport, outKey, h, path2, tag2)
		return
	}
	if visited[next] {
		return // control-plane loop: cut the branch (§6.1)
	}
	visited[next] = true
	pt.traverse(inport, next, h, path2, tag2, visited)
	delete(visited, next)
}

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
// ones its cached functions were computed (or incrementally updated)
// for. The new table takes over pt's transfer cache, so pt must not be
// updated again.
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
		a := &arrival{Inport: inport, At: inport.Port, Headers: pt.Space.All()}
		pt.addArrival(inport.Switch, a)
		visited := map[topo.PortKey]bool{inport: true}
		pt.forward(inport.Switch, a, pt.Space.All(), visited)
	}
}

// forward is Algorithm 2's recursive search, shared by initial
// construction and the incremental re-traversal: h, a part of arrival a's
// headers at switch s, leaves s through every transfer entry of a's input
// port. visited guards against control-plane loops (a port entered twice
// ends the branch).
func (pt *PathTable) forward(s topo.SwitchID, a *arrival, h bdd.Ref, visited map[topo.PortKey]bool) {
	tp := pt.transfer[s]
	n := pt.Net.Switch(s).NumPorts
	for i := 0; i <= n; i++ {
		y := topo.PortID(i + 1) // the ports, then ⊥
		if i == n {
			y = topo.DropPort
		}
		for _, te := range tp[flowtable.PortPair{In: a.At, Out: y}] {
			h2 := pt.Space.T.And(h, te.Guard)
			if h2 == bdd.False {
				continue
			}
			// Rewrites apply as the packet leaves: the continuation (and
			// any recorded path entry) carries the transformed set.
			h3 := pt.Space.Transform(h2, te.Rewrite)
			pt.extend(s, a, y, h3, visited)
			if h2 == h {
				return // the entries of one input port partition the headers
			}
		}
	}
}

// extend pushes h out of port y of switch s, where it arrived as part of
// a: it appends the hop, updates the tag, and either records a finished
// path (edge port, ⊥, or dead end) or recurses into the next switch. The
// arrival there is a's child through y, merged into when it exists — so a
// re-traversal grows the records a build made instead of adding more.
func (pt *PathTable) extend(s topo.SwitchID, a *arrival, y topo.PortID, h bdd.Ref, visited map[topo.PortKey]bool) {
	hop := topo.Hop{In: a.At, Switch: s, Out: y}
	tag := a.Tag.Union(pt.Params.Hash(hop.Bytes()))
	path := append(a.Prefix[:len(a.Prefix):len(a.Prefix)], hop)
	outKey := topo.PortKey{Switch: s, Port: y}

	if y == topo.DropPort || pt.Net.IsEdgePort(outKey) {
		pt.addPath(a.Inport, outKey, h, path, tag)
		return
	}
	next, ok := pt.Net.Peer(outKey)
	if !ok {
		// Output to a port with nothing attached: the control plane says
		// these packets leave the network unobserved. Record the path so
		// operators can audit it; no report will ever match it.
		pt.addPath(a.Inport, outKey, h, path, tag)
		return
	}
	if visited[next] {
		return // control-plane loop: cut the branch (§6.1)
	}
	visited[next] = true
	c := a.child(y)
	switch {
	case c == nil:
		c = &arrival{Inport: a.Inport, At: next.Port, Headers: h, Prefix: path, Tag: tag}
		a.next = append(a.next, c)
		pt.addArrival(next.Switch, c)
	case c.deleted:
		c.deleted, c.Headers = false, h
		pt.nDead--
	default:
		c.Headers = pt.Space.T.Or(c.Headers, h)
	}
	pt.forward(next.Switch, c, h, visited)
	delete(visited, next)
}

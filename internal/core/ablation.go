// Ablations for the design choices §3.3 and §4.3 call out.
//
// Hash-based tagging (fold the path with a hash/XOR instead of a Bloom
// filter) verifies just as well — equality still detects deviations — but
// hollows out localization: without the subset structure, the server
// cannot test whether an individual hop is consistent with the tag, so
// path inference degenerates to blind enumeration of every deviation from
// every prefix of the intended path, keeping only those whose full fold
// equals the reported tag. PathInferBlind implements that degenerate
// search. Because any path whose fold equals the tag necessarily passes
// every per-hop test, the guided search's answers are a subset of the
// blind search's; what Bloom structure buys is pruning — the guided search
// replays a handful of deviations where the blind one replays
// O(path length × ports) — plus suppression of late-deviating fold
// collisions (the "why not hash tags" argument of §3.3).

package core

import (
	"veridp/internal/header"
	"veridp/internal/packet"
	"veridp/internal/topo"
)

// PathInferBlind mirrors PathInfer but may not consult the tag for
// per-hop membership tests — only final tag equality, which is all a
// hash-fold tag supports. Every suffix deviation whose replay reaches the
// reported exit becomes a candidate.
func (pt *PathTable) PathInferBlind(r *packet.Report) []topo.Path {
	intended := pt.IntendedPath(r.Inport, r.Header)

	// Without per-hop tests the failing hop is unknown: every prefix of
	// the intended path is a possible common part.
	comPath := append(topo.Path(nil), intended...)

	var pathset []topo.Path
	for len(comPath) > 0 {
		devHop := comPath[len(comPath)-1]
		comPath = comPath[:len(comPath)-1]
		s, x := devHop.Switch, devHop.In

		outs := append(pt.Net.Switch(s).Ports(), topo.DropPort)
		for _, y := range outs {
			if dev, ok := pt.replayBlind(r, s, x, y, len(comPath)); ok {
				cand := concatPath(comPath, dev)
				// Final equality is all a hash fold supports.
				if pt.foldPath(cand) == r.Tag {
					pathset = append(pathset, cand)
				}
			}
		}
	}
	return pathset
}

// replayBlind is replayDeviation without the per-hop tag test.
func (pt *PathTable) replayBlind(r *packet.Report, s topo.SwitchID, x, y topo.PortID, hopsBefore int) (topo.Path, bool) {
	maxHops := pt.Net.MaxPathLength()
	var dev topo.Path
	cur := topo.PortKey{Switch: s, Port: x}
	total := hopsBefore

	h := r.Header
	for total < maxHops {
		var out topo.PortID
		if cur.Switch == s {
			out = y
		} else {
			cfg, ok := pt.Configs[cur.Switch]
			if !ok {
				return nil, false
			}
			var rw *header.Rewrite
			out, rw = cfg.Forward(cur.Port, h)
			h = rw.Apply(h)
		}
		hop := topo.Hop{In: cur.Port, Switch: cur.Switch, Out: out}
		dev = append(dev, hop)
		total++
		outKey := topo.PortKey{Switch: cur.Switch, Port: out}
		if out == topo.DropPort || pt.Net.IsEdgePort(outKey) {
			return dev, outKey == r.Outport
		}
		if total >= maxHops {
			return dev, outKey == r.Outport
		}
		next, ok := pt.Net.Peer(outKey)
		if !ok {
			return dev, outKey == r.Outport
		}
		cur = next
	}
	return nil, false
}

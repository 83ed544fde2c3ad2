// Incremental path-table update (§4.4), for every rule shape. When one
// rule of switch S is added, deleted or modified, only the headers the old
// or the new rule matches — the region W — can change how S forwards
// them. Computing S's transfer functions inside W alone, before and after
// the edit, gives for every ⟨x, y⟩ pair of S, old and new being the
// pair's guard before and after,
//
//	lost   = old ∧ W ∧ ¬new   (headers that no longer go from x to y)
//	gained = new ∧ ¬old       (headers that now do)
//
// and the table follows pair by pair, touching only its affected slice:
//
//  1. Every path, and every recorded traversal arrival, whose hop at S is
//     exactly ⟨x, y⟩ loses lost from its header set; emptied paths are
//     deleted.
//  2. Every header set recorded arriving at S on port x is intersected
//     with gained and re-traversed out of y, adding or growing paths
//     downstream.
//  3. The cached guard of ⟨x, y⟩ becomes (old ∧ ¬lost) ∨ gained, which
//     step 2's traversal already follows.
//
// Destination prefixes at any priority, in-port and L4 matches, drops and
// ACL-filtered switches all take this one path. Rewrites do not: a path's
// header set is the one it exits with, so a rewrite anywhere puts the sets
// a hop carries in other coordinates than S's guards, and ApplyFlowMod
// re-runs Algorithm 2 instead.

package core

import (
	"slices"

	"veridp/internal/bdd"
	"veridp/internal/flowtable"
	"veridp/internal/topo"
)

// pairChange is one ⟨in, out⟩ pair of the edited switch whose transfer
// guard moved: the headers it lost and those it gained.
type pairChange struct {
	pp           flowtable.PortPair
	lost, gained bdd.Ref
}

// applyEdit runs edit, which replaces rule old of switch sw's
// configuration with a rule matching what next matches (old is nil for an
// add, next for a delete), and brings the table along. It returns edit's
// error, with the table untouched. No rule of any switch may rewrite
// headers: every transfer pair then has at most one entry, with a nil
// rewrite.
//
// The guards inside W come from the switch's rules before and after the
// edit, scanned inside W alone; the cached guards are touched only to
// move the lost and gained headers.
func (pt *PathTable) applyEdit(sw topo.SwitchID, old, next *flowtable.Rule, edit func() error) error {
	cfg := pt.Configs[sw]
	within := cfg.TransferWithin(pt.Space, old, next)
	before := within()
	if err := edit(); err != nil {
		return err
	}
	after := within()
	t := pt.Space.T
	var changes []pairChange
	for i, j := 0, 0; i < len(before) || j < len(after); {
		var pp flowtable.PortPair
		was, now := bdd.False, bdd.False
		switch {
		case j == len(after) || i < len(before) && before[i].Compare(after[j].PortPair) < 0:
			pp, was = before[i].PortPair, before[i].Guard
			i++
		case i == len(before) || before[i].Compare(after[j].PortPair) > 0:
			pp, now = after[j].PortPair, after[j].Guard
			j++
		default:
			pp, was, now = after[j].PortPair, before[i].Guard, after[j].Guard
			i, j = i+1, j+1
		}
		if was != now {
			changes = append(changes, pairChange{pp: pp, lost: t.Diff(was, now), gained: t.Diff(now, was)})
		}
	}
	tp := pt.transfer[sw]
	for _, c := range changes {
		es := tp[c.pp]
		switch g := t.Or(t.Diff(guard(es), c.lost), c.gained); {
		case g == bdd.False:
			delete(tp, c.pp)
		case es == nil:
			tp[c.pp] = []flowtable.TransferEntry{{Guard: g}}
		default:
			es[0].Guard = g // the cache is the writer's alone
		}
	}
	pt.shrink(sw, changes)
	pt.regrow(sw, changes)
	return nil
}

// guard returns the guard of a pair's one entry, False when it has none.
func guard(es []flowtable.TransferEntry) bdd.Ref {
	if len(es) == 0 {
		return bdd.False
	}
	return es[0].Guard
}

// shrink is step 1: it takes every change's lost headers out of the paths
// and arrival records that cross switch sw through the change's pair.
func (pt *PathTable) shrink(sw topo.SwitchID, changes []pairChange) {
	t := pt.Space.T
	shrunk := func(h bdd.Ref, path topo.Path) bdd.Ref {
		for _, hop := range path {
			if hop.Switch != sw {
				continue
			}
			for _, c := range changes {
				if c.pp.In == hop.In && c.pp.Out == hop.Out {
					h = t.Diff(h, c.lost)
				}
			}
		}
		return h
	}
	var done []topo.PortID
	for _, c := range changes {
		if c.lost == bdd.False || slices.Contains(done, c.pp.Out) {
			continue
		}
		done = append(done, c.pp.Out)
		out := topo.PortKey{Switch: sw, Port: c.pp.Out}
		// Entries are immutable, so each affected pair gets a fresh slice
		// holding the untouched entries as they are and new entries for
		// the shrunk ones.
		for _, k := range pt.hopIndex[out] {
			es := pt.pairs.get(k)
			var kept []*PathEntry
			for i, e := range es {
				h := shrunk(e.Headers, e.Path)
				if h == e.Headers {
					if kept != nil {
						kept = append(kept, e)
					}
					continue
				}
				if kept == nil {
					kept = append(make([]*PathEntry, 0, len(es)), es[:i]...)
				}
				if h == bdd.False {
					pt.nHops -= len(e.Path)
					continue
				}
				kept = append(kept, &PathEntry{Headers: h, Path: e.Path, Tag: e.Tag})
			}
			if kept != nil {
				pt.setPair(k, kept)
			}
		}
		for _, a := range pt.arrivalIndex[out] {
			if a.deleted {
				continue
			}
			if a.Headers = shrunk(a.Headers, a.Prefix); a.Headers == bdd.False {
				a.deleted = true
				pt.nDead++
			}
		}
	}
}

// regrow is step 2: it re-traverses every change's gained headers out of
// its pair from the arrivals recorded at switch sw on the pair's input
// port. The loop visits the arrivals recorded when it starts: the
// traversal appends to the list when a path loops back to sw through
// another port, and those arrivals followed the new guards already
// (forwarding again what a path merged into an older one changes
// nothing).
func (pt *PathTable) regrow(sw topo.SwitchID, changes []pairChange) {
	for _, a := range pt.arrivals[sw] {
		if a.deleted {
			continue
		}
		var visited map[topo.PortKey]bool
		for _, c := range changes {
			if c.pp.In != a.At {
				continue
			}
			moved := pt.Space.T.And(a.Headers, c.gained)
			if moved == bdd.False {
				continue
			}
			if visited == nil {
				visited = pt.visitedAlong(a)
			}
			pt.extend(sw, a, c.pp.Out, moved, visited)
		}
	}
}

// visitedAlong reconstructs the loop-guard set for a recorded arrival: the
// entry port plus every port entered along its prefix.
func (pt *PathTable) visitedAlong(a *arrival) map[topo.PortKey]bool {
	visited := map[topo.PortKey]bool{a.Inport: true}
	for _, hop := range a.Prefix {
		out := topo.PortKey{Switch: hop.Switch, Port: hop.Out}
		if next, ok := pt.Net.Peer(out); ok {
			visited[next] = true
		}
	}
	return visited
}

// Compact drops deleted arrival records and rebuilds the hop and arrival
// indexes, in the storage they already have. It changes no path entry.
// Long-running servers call it periodically.
func (pt *PathTable) Compact() {
	for pk, ks := range pt.hopIndex {
		pt.hopIndex[pk] = ks[:0]
	}
	pt.nIndexed = 0
	pt.pairs.each(func(k tableKey, es []*PathEntry) {
		for _, e := range es {
			pt.indexHops(k, e.Path)
		}
	})
	for pk, as := range pt.arrivalIndex {
		clear(as)
		pt.arrivalIndex[pk] = as[:0]
	}
	for sw, as := range pt.arrivals {
		live := as[:0]
		for _, a := range as {
			if a.deleted {
				continue
			}
			live = append(live, a)
			next := a.next[:0]
			for _, c := range a.next {
				if !c.deleted {
					next = append(next, c)
				}
			}
			clear(a.next[len(next):])
			a.next = next
			for _, hop := range a.Prefix {
				pk := topo.PortKey{Switch: hop.Switch, Port: hop.Out}
				pt.arrivalIndex[pk] = append(pt.arrivalIndex[pk], a)
			}
		}
		clear(as[len(live):])
		pt.arrivals[sw] = live
	}
	pt.nArrivals -= pt.nDead
	pt.nDead = 0
}

// Incremental path-table update (§4.4). A rule add/delete at switch S is
// reduced (by flowtable.PrefixTree) to a Delta: the header set Δ that moves
// from output port From to output port To. Applying it touches only the
// affected slice of the table:
//
//  1. Every path (and every recorded traversal arrival) whose hop sequence
//     exits S through From loses Δ from its header set; emptied paths are
//     deleted.
//  2. Every header set that reached S during the recursive search is
//     intersected with Δ and re-traversed out of To, adding or growing
//     paths downstream.
//
// The §4.4 preconditions apply: destination-prefix forwarding rules only —
// no ACLs, no input-port matches — so transfer predicates are input-port
// independent and can be patched in place.

package core

import (
	"fmt"

	"veridp/internal/bdd"
	"veridp/internal/flowtable"
	"veridp/internal/topo"
)

// ApplyDelta incrementally updates the path table after a rule change at
// switch sw moved header set d.Set from port d.From to port d.To.
func (pt *PathTable) ApplyDelta(sw topo.SwitchID, d flowtable.Delta) error {
	s := pt.Net.Switch(sw)
	if s == nil {
		return fmt.Errorf("core: unknown switch %d", sw)
	}
	if d.From == d.To || d.Set == bdd.False {
		return nil // nothing moves
	}

	// Patch the cached transfer functions for S (input-port independent
	// under the §4.4 preconditions: pure destination-prefix rules — no
	// ACLs, no input-port matches, no rewrites). Every pair is checked
	// before any is patched, so a rejected delta leaves the table as it
	// was.
	tp := pt.transfer[sw]
	for _, x := range s.Ports() {
		for _, y := range [2]topo.PortID{d.From, d.To} {
			pp := flowtable.PortPair{In: x, Out: y}
			if es := tp[pp]; len(es) > 0 && plainEntry(es) == nil {
				return fmt.Errorf("core: incremental update on a rewriting pair %v (unsupported; rebuild instead)", pp)
			}
		}
	}
	for _, x := range s.Ports() {
		patchPlainGuard(pt, tp, flowtable.PortPair{In: x, Out: d.From}, d.Set, false)
		patchPlainGuard(pt, tp, flowtable.PortPair{In: x, Out: d.To}, d.Set, true)
	}

	fromKey := topo.PortKey{Switch: sw, Port: d.From}

	// Step 1a: shrink paths that exited S via From. Entries are immutable,
	// so each affected pair gets a fresh slice holding the untouched
	// entries as they are and new entries for the shrunk ones.
	for _, k := range pt.hopIndex[fromKey] {
		es := pt.pairs.get(k)
		var kept []*PathEntry
		for i, e := range es {
			h := e.Headers
			if exitsThrough(e.Path, fromKey) {
				h = pt.Space.T.Diff(h, d.Set)
			}
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
	// Step 1b: shrink downstream arrival records whose prefix used that
	// hop.
	for _, a := range pt.arrivalIndex[fromKey] {
		if a.deleted {
			continue
		}
		a.Headers = pt.Space.T.Diff(a.Headers, d.Set)
		if a.Headers == bdd.False {
			a.deleted = true
			pt.nDead++
		}
	}

	// Step 2: re-traverse the moved headers out of To from every arrival
	// at S. Snapshot the arrival list first: the traversal appends new
	// arrivals downstream (never at S itself unless the topology loops
	// back, which the visited set prevents from recursing unboundedly).
	snapshot := append([]*arrival(nil), pt.arrivals[sw]...)
	for _, a := range snapshot {
		if a.deleted {
			continue
		}
		moved := pt.Space.T.And(a.Headers, d.Set)
		if moved == bdd.False {
			continue
		}
		visited := pt.visitedAlong(a)
		pt.extend(a.Inport, topo.PortKey{Switch: sw, Port: a.At}, d.To, moved, a.Prefix, a.Tag, visited)
	}
	return nil
}

// plainEntry returns the pair's nil-rewrite entry, nil when it has none.
func plainEntry(es []flowtable.TransferEntry) *flowtable.TransferEntry {
	for i := range es {
		if es[i].Rewrite.IsZero() {
			return &es[i]
		}
	}
	return nil
}

// patchPlainGuard adjusts the nil-rewrite entry of a transfer pair by the
// delta (add=true ORs it in, add=false subtracts). The caller has checked
// that a pair with entries has a nil-rewrite one: pairs carrying only
// rewrite entries violate the §4.4 preconditions.
func patchPlainGuard(pt *PathTable, tp map[flowtable.PortPair][]flowtable.TransferEntry, pp flowtable.PortPair, delta bdd.Ref, add bool) {
	if e := plainEntry(tp[pp]); e != nil {
		if add {
			e.Guard = pt.Space.T.Or(e.Guard, delta)
		} else {
			e.Guard = pt.Space.T.Diff(e.Guard, delta)
		}
		return
	}
	if add {
		tp[pp] = append(tp[pp], flowtable.TransferEntry{Guard: delta})
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

// exitsThrough reports whether some hop of the path leaves through pk.
func exitsThrough(path topo.Path, pk topo.PortKey) bool {
	for _, hop := range path {
		if hop.Switch == pk.Switch && hop.Out == pk.Port {
			return true
		}
	}
	return false
}

// Compact drops deleted arrival records and rebuilds the hop and arrival
// indexes, in the storage they already have. It changes no path entry.
// Long-running servers call it periodically.
func (pt *PathTable) Compact() {
	for pk, ks := range pt.hopIndex {
		pt.hopIndex[pk] = ks[:0]
	}
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

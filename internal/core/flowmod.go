// Live rule updates: the verification server's one FlowMod entry point.
// The interception proxy hands every FlowMod it splices to
// Handle.ApplyFlowMod, which edits the switch's logical configuration and
// brings the path table along by one rule:
//
//   - While no rule anywhere rewrites headers, the edited switch's
//     transfer functions are recomputed inside the region the old and the
//     new rule match, and the table takes the per-pair difference (see
//     update.go). Any rule shape goes this way: prefixes at any priority,
//     in-port and L4 matches, drops, outputs to missing ports, switches
//     with ACLs.
//   - While some rule rewrites — the edited one before or after the edit
//     included — path header sets are in exit coordinates, and Algorithm
//     2 runs again over the whole network, in the same header space, with
//     only the edited switch's transfer functions recomputed (the step
//     that dominates a from-scratch build). A running count of rewriting
//     rules decides between the two.
//
// Both extend the append-only header space. Once it has doubled since the
// last from-scratch build, the table is built from scratch in a fresh
// space, which bounds the BDD node array under endless churn. Either way
// the result is published once.

package core

import (
	"errors"
	"fmt"

	"veridp/internal/bdd"
	"veridp/internal/bloom"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/openflow"
	"veridp/internal/topo"
)

// FlowModPaths counts the FlowMods ApplyFlowMod applied, by how the table
// followed each: by one rule's difference (Delta), by re-running
// Algorithm 2 because some rule rewrites headers (Rerun), or by a
// from-scratch build in a fresh header space (Rebuild, which takes
// precedence when the space doubled after either of the others).
type FlowModPaths struct {
	Delta, Rerun, Rebuild uint64
}

// FlowModPaths reads the counters without taking the update lock.
func (h *Handle) FlowModPaths() FlowModPaths {
	return FlowModPaths{Delta: h.deltas.Load(), Rerun: h.reruns.Load(), Rebuild: h.rebuilds.Load()}
}

// rewrites reports whether r rewrites headers (1) or not (0); a nil r
// does not.
func rewrites(r *flowtable.Rule) int {
	if r == nil || r.Rewrite.IsZero() {
		return 0
	}
	return 1
}

// recount derives ApplyFlowMod's bookkeeping from the writer table: the
// rewriting rules of its configurations and its header space's size.
//
// lint:held mu
func (h *Handle) recount() {
	h.nRewrites = 0
	for _, cfg := range h.work.Configs {
		for _, r := range cfg.Table.Rules() {
			h.nRewrites += rewrites(r)
		}
	}
	h.bddBase = h.work.Space.T.Size()
}

// ApplyFlowMod applies one FlowMod bound for switch sw — as the
// interception proxy saw it on the wire — to that switch's logical
// configuration, updates the path table to match, and publishes the result
// as one snapshot. When the edit itself fails (a delete or modify of an
// unknown rule ID, a duplicate add, a switch with no logical
// configuration) it returns the error and publishes nothing.
//
// Without rewriting rules the table follows by the edit's difference (see
// the file comment), which clones only the pair-index shards it writes;
// the verdict caches then lose only the entries of those shards.
// Otherwise Algorithm 2 re-runs and every cached verdict is invalidated.
func (h *Handle) ApplyFlowMod(sw topo.SwitchID, f *openflow.FlowMod) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	cfg, ok := h.work.Configs[sw]
	if !ok {
		return fmt.Errorf("core: FlowMod for switch %d, which has no logical configuration", sw)
	}
	if h.bddBase == 0 {
		h.recount()
	}
	var old, next *flowtable.Rule
	if r := cfg.Table.Get(f.RuleID); r != nil {
		old = r.Clone()
	}
	if f.Command != openflow.FlowDelete {
		next = &f.Rule
	}
	edit := func() error { return openflow.ApplyFlowMod(cfg.Table, f) }
	path := &h.deltas
	if h.nRewrites > 0 || rewrites(next) > 0 {
		if err := edit(); err != nil {
			return err
		}
		h.work = h.work.retraverse(sw)
		path = &h.reruns
	} else if err := h.work.applyEdit(sw, old, next, edit); err != nil {
		return err
	}
	h.nRewrites += rewrites(cfg.Table.Get(f.RuleID)) - rewrites(old)
	if pt := h.work; pt.Space.T.Size() >= 2*h.bddBase {
		h.work = (&Builder{Net: pt.Net, Space: header.NewSpace(), Params: pt.Params, Configs: pt.Configs}).Build()
		h.bddBase = h.work.Space.T.Size()
		path = &h.rebuilds
	} else if 2*pt.nDead > pt.nArrivals || pt.nIndexed > 2*pt.nHops {
		// Dead arrivals or stale hop-index names outnumber the live
		// ones: a path deleted and re-added is indexed again each time.
		pt.Compact()
	}
	path.Add(1)
	h.publish(path != &h.deltas)
	return nil
}

// Diff reports the first difference between what this snapshot publishes
// and table want, or nil when they agree: per ⟨inport, outport, path,
// tag⟩, the union of the entries' header sets must be the same, and so
// must Stats. want must live in the snapshot's header space, where equal
// header sets are equal refs, so Diff is for a from-scratch Builder run
// over the writer's Space; call it under Handle.Inspect, because taking
// the unions extends that space.
func (s *Snapshot) Diff(want *PathTable) error {
	if want.Space != s.space {
		return errors.New("core: Diff across header spaces")
	}
	if got, exp := s.stats, want.Stats(); got != exp {
		return fmt.Errorf("core: stats %+v, want %+v", got, exp)
	}
	got, exp := headerUnions(s.space, s.pairs.entries), headerUnions(want.Space, want.pairs.entries)
	for k, h := range exp {
		if g, ok := got[k]; !ok {
			return fmt.Errorf("core: %v missing", k)
		} else if g != h {
			return fmt.Errorf("core: %v admits headers %v, want %v", k, g, h)
		}
	}
	for k := range got {
		if _, ok := exp[k]; !ok {
			return fmt.Errorf("core: spurious %v", k)
		}
	}
	return nil
}

// entryKey names a path entry up to its header set.
type entryKey struct {
	in, out topo.PortKey
	path    string // the hops' wire bytes
	tag     bloom.Tag
}

func (k entryKey) String() string {
	return fmt.Sprintf("entry %v→%v tag %v path %v", k.in, k.out, k.tag, []byte(k.path))
}

// headerUnions folds entries by ⟨inport, outport, path, tag⟩, taking the
// union of their header sets.
func headerUnions(space *header.Space, entries func(func(in, out topo.PortKey, e *PathEntry))) map[entryKey]bdd.Ref {
	out := make(map[entryKey]bdd.Ref)
	var path []byte
	entries(func(in, outK topo.PortKey, e *PathEntry) {
		path = path[:0]
		for _, hop := range e.Path {
			path = append(path, hop.Bytes()...)
		}
		k := entryKey{in: in, out: outK, path: string(path), tag: e.Tag}
		if prev, ok := out[k]; ok {
			out[k] = space.T.Or(prev, e.Headers)
		} else {
			out[k] = e.Headers
		}
	})
	return out
}

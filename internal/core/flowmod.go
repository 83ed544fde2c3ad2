// Live rule updates: the verification server's one FlowMod entry point.
// The interception proxy hands every FlowMod it splices to
// Handle.ApplyFlowMod, which edits the switch's logical configuration and
// brings the path table along in one of two ways:
//
//   - §4.4's incremental path, when the switch meets the paper's
//     preconditions: every rule matches a destination prefix and nothing
//     else, outputs or drops without a rewrite, and has Priority equal to
//     its prefix length, no two rules share a prefix, and the switch has
//     no ACLs. Under those rules priority order is longest-prefix match,
//     so a per-switch PrefixTree turns the change into flowtable.Deltas
//     and PathTable.ApplyDelta applies them. No switch anywhere may
//     rewrite headers either: a path's header set is the one it exits
//     with, and a rewrite downstream of the edited switch would put it in
//     different coordinates than the delta.
//   - Otherwise Algorithm 2 runs again over the whole network, in the same
//     header space, with only the edited switch's transfer functions
//     recomputed (the step that dominates a from-scratch build), and the
//     switch's prefix tree is re-derived from its configuration, so a
//     switch that meets the preconditions again goes back to deltas.
//
// Both paths extend the append-only header space. Once it has doubled
// since the last from-scratch build, the table is built from scratch in a
// fresh space and every tree is re-derived there, which bounds the BDD
// node array under endless churn. Either way the result is published
// once.

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

// prefixState is ApplyFlowMod's §4.4 bookkeeping beside the writer table,
// in that table's header space.
type prefixState struct {
	// trees holds a prefix tree mirroring the rules of each switch that
	// meets the §4.4 preconditions, keyed by rule ID; the others have none.
	trees map[topo.SwitchID]*flowtable.PrefixTree
	// rewrites records that some switch's rules rewrite headers, which
	// rules out deltas at every switch.
	rewrites bool
	// bddBase is the header space's node count when the state was derived.
	bddBase int
}

// errNotPrefixRule rejects a rule outside §4.4's destination-prefix form.
var errNotPrefixRule = errors.New("core: not a destination-prefix rule with priority equal to its length")

// newPrefixState derives the trees from pt's logical configurations.
func newPrefixState(pt *PathTable) *prefixState {
	ps := &prefixState{trees: make(map[topo.SwitchID]*flowtable.PrefixTree, len(pt.Configs))}
	for sw := range pt.Configs {
		ps.rederive(pt, sw)
	}
	ps.bddBase = pt.Space.T.Size()
	return ps
}

// rederive rebuilds switch sw's tree from its configuration in pt's header
// space, and re-checks the network for rewriting rules.
func (ps *prefixState) rederive(pt *PathTable, sw topo.SwitchID) {
	if t := newSwitchTree(pt.Space, pt.Configs[sw]); t != nil {
		ps.trees[sw] = t
	} else {
		delete(ps.trees, sw)
	}
	ps.rewrites = false
	for _, cfg := range pt.Configs {
		for _, r := range cfg.Table.Rules() {
			if !r.Rewrite.IsZero() {
				ps.rewrites = true
				return
			}
		}
	}
}

// newSwitchTree mirrors cfg's rules into a prefix tree, or returns nil when
// the switch fails the §4.4 preconditions.
func newSwitchTree(space *header.Space, cfg *flowtable.SwitchConfig) *flowtable.PrefixTree {
	if cfg.HasACLs() {
		return nil
	}
	t := flowtable.NewPrefixTree(space, cfg.Ports)
	for _, r := range cfg.Table.Rules() {
		if _, err := insertRule(t, r); err != nil {
			return nil
		}
	}
	return t
}

// prefixRule reports whether r has §4.4's form: a destination prefix and
// nothing else to match, priority equal to the prefix length (so priority
// order is longest-prefix match), and no rewrite.
func prefixRule(r *flowtable.Rule) bool {
	m := r.Match
	return m.InPort == 0 && m.SrcPrefix.Len == 0 && !m.HasProto && !m.HasSrc && !m.HasDst &&
		int(r.Priority) == m.DstPrefix.Len && r.Rewrite.IsZero()
}

// insertRule adds r to t under its rule ID and returns the header set it
// moves. It fails when r is not a prefix rule, its prefix is taken or is
// 0.0.0.0/0, or it outputs to a port the switch lacks.
func insertRule(t *flowtable.PrefixTree, r *flowtable.Rule) (flowtable.Delta, error) {
	if !prefixRule(r) {
		return flowtable.Delta{}, errNotPrefixRule
	}
	return t.Insert(r.ID, r.Match.DstPrefix, r.EffectiveOut())
}

// ApplyFlowMod applies one FlowMod bound for switch sw — as the
// interception proxy saw it on the wire — to that switch's logical
// configuration, updates the path table to match, and publishes the result
// as one snapshot. When the edit itself fails (a delete or modify of an
// unknown rule ID, a duplicate add, a switch with no logical
// configuration) it returns the error and publishes nothing.
//
// The table follows by §4.4 deltas when the switch meets the preconditions
// (see the file comment), so a prefix-rule FlowMod costs a few tree and
// BDD operations and clones only the pair-index shards it writes; the
// verdict caches then lose only the entries of those shards. Otherwise
// Algorithm 2 re-runs and every cached verdict is invalidated.
func (h *Handle) ApplyFlowMod(sw topo.SwitchID, f *openflow.FlowMod) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	cfg, ok := h.work.Configs[sw]
	if !ok {
		return fmt.Errorf("core: FlowMod for switch %d, which has no logical configuration", sw)
	}
	if h.prefix == nil {
		h.prefix = newPrefixState(h.work)
	}
	var old *flowtable.Rule
	if r := cfg.Table.Get(f.RuleID); r != nil {
		old = r.Clone()
	}
	if err := openflow.ApplyFlowMod(cfg.Table, f); err != nil {
		return err
	}
	renew := false
	if !h.applyDeltas(sw, old, cfg.Table.Get(f.RuleID)) {
		h.work = h.work.retraverse(sw)
		h.prefix.rederive(h.work, sw)
		renew = true
	}
	if pt := h.work; pt.Space.T.Size() >= 2*h.prefix.bddBase {
		h.work = (&Builder{Net: pt.Net, Space: header.NewSpace(), Params: pt.Params, Configs: pt.Configs}).Build()
		h.prefix = newPrefixState(h.work)
		renew = true
	} else if 2*pt.nDead > pt.nArrivals {
		pt.Compact()
	}
	h.publish(renew)
	return nil
}

// applyDeltas moves the table from rule old to rule cur at switch sw (nil
// for an add's old or a delete's cur) through the switch's prefix tree. It
// returns false when the change cannot go that way — the switch or the new
// rule fails the preconditions, or the writer rejects a delta — and the
// caller must re-run Algorithm 2; the tree and the switch's transfer
// functions may then be half-updated, and the caller replaces both.
//
// lint:held mu
func (h *Handle) applyDeltas(sw topo.SwitchID, old, cur *flowtable.Rule) bool {
	t := h.prefix.trees[sw]
	if t == nil || h.prefix.rewrites {
		return false
	}
	if old != nil {
		if d, err := t.Remove(old.ID); err != nil || h.work.ApplyDelta(sw, d) != nil {
			return false
		}
	}
	if cur != nil {
		if d, err := insertRule(t, cur); err != nil || h.work.ApplyDelta(sw, d) != nil {
			return false
		}
	}
	return true
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

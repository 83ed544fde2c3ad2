// Snapshot publication: the verification server's answer to §6.4's
// multi-threaded verification running *while the table changes* (the
// property Foerster & Schmid's local-verification line of work argues
// consistency monitors need). A Handle owns the mutable PathTable and
// publishes immutable Snapshots of it through an atomic pointer: any number
// of goroutines verify tag reports lock-free against the snapshot they
// loaded, while rule updates mutate the private table and swap in a new
// snapshot when they finish. A verdict therefore always reflects a fully
// applied update — never the half-way state between an incremental
// update's shrink and re-traversal steps.
//
// Why BDD refs stay valid across snapshots: bdd.Table is append-only — a
// node is never mutated or freed once created (see the bdd package
// comment). A Snapshot captures a bdd.View (an immutable prefix of the node
// array) at publication time; every Headers ref frozen into the snapshot
// was minted before the view was taken, so the view can evaluate it even
// while the writer keeps extending the table for the next update. The
// atomic pointer swap provides the happens-before edge that makes the
// writer's appends visible to readers.
//
// Publication copies nothing: the writer's table *is* the next snapshot.
// A Snapshot takes the table's pair index by value — an array of shard-map
// references — and from then on shares every shard map, per-pair slice and
// path entry with the writer. Three rules keep that sharing safe, all
// enforced on the writer side (pathtable.go, PathTable.setPair):
//
//  1. A stored PathEntry is never written. The incremental shrink,
//     addPath's merge and SetParams' re-tag store a new entry instead.
//  2. A stored per-pair slice is never written below its length. Changing
//     or dropping an element means a fresh slice; appending past the
//     length is allowed, because no holder of the shorter slice header can
//     index the new element.
//  3. A shard map a snapshot can reach is never written. Publication
//     clears the table's ownership marks, and the first write to a shard
//     afterwards clones that one map; older snapshots keep the original.
//
// So an update costs a clone of the few shards it writes (the index is
// sharded by exit port precisely so that they are few — see pairIndex),
// and the atomicity a reader needs comes from the pointer swap alone: it
// pinned either the index from before the update or the one after.
//
// The same marks drive verdict-cache invalidation. A Snapshot carries one
// epoch per shard, and publication mints a fresh one only for the shards
// written since the previous publication; the rest keep theirs, so cached
// verdicts for reports exiting through untouched shards stay valid. A
// table replaced wholesale (Swap returning a different table, or
// ApplyFlowMod's re-run and rebuild) and a SetParams re-tag renew all of
// them.

package core

import (
	"sync"
	"sync/atomic"

	"veridp/internal/bdd"
	"veridp/internal/bloom"
	"veridp/internal/header"
	"veridp/internal/packet"
	"veridp/internal/topo"
)

// Snapshot is one immutable publication of the path table: verification and
// lookup against it are lock-free and allocation-free, and all reads within
// one Snapshot observe the same fully-applied update sequence.
type Snapshot struct {
	pairs  pairIndex          // frozen after publish; shard maps shared with older snapshots and the writer
	view   bdd.View           // frozen after publish
	space  *header.Space      // frozen after publish
	params bloom.Params       // frozen after publish
	stats  Stats              // frozen after publish; the table's totals at publication
	epochs [pairShards]uint64 // frozen after publish; per pairs shard, the publication that last changed it
}

// snapEpoch numbers every snapshot publication in the process. It is
// global, not per-Handle, so epochs stay unique across Handle rebuilds
// (a restarted monitor's first snapshot must never collide with a cached
// entry stamped by its predecessor). Epochs start at 1: a VerdictCache
// uses meta==0 as its empty-slot marker.
var snapEpoch atomic.Uint64

func nextEpoch() uint64 { return snapEpoch.Add(1) }

// Epoch returns the epoch of the shard holding the pairs that exit through
// out: the number of the publication that last changed that shard. Epochs
// are never reused, and a shard keeps its epoch exactly as long as its
// pairs stay the same, which is what lets a VerdictCache invalidate itself
// for free: an entry stamped with any other epoch is dead on probe.
//
//lint:allocfree
func (s *Snapshot) Epoch(out topo.PortKey) uint64 {
	return s.epochs[tableKey{Out: out}.shard()]
}

// Lookup returns the paths for an ⟨inport, outport⟩ pair. The returned
// entries are immutable: safe to read from any goroutine.
//
//lint:allocfree
func (s *Snapshot) Lookup(in, out topo.PortKey) []*PathEntry {
	return s.pairs.get(tableKey{in, out})
}

// Params reports the Bloom configuration the snapshot's tags were derived
// under.
func (s *Snapshot) Params() bloom.Params { return s.params }

// Stats returns the table summary as of this publication.
func (s *Snapshot) Stats() Stats { return s.stats }

// Verify implements Algorithm 3 on one tag report against this snapshot:
// safe from any number of goroutines concurrently with table updates, and
// allocation-free.
//
//lint:allocfree
func (s *Snapshot) Verify(r *packet.Report) Verdict {
	return verify(s.space, s.view, s.pairs.get(tableKey{r.Inport, r.Outport}), r)
}

// Handle publishes a PathTable for concurrent use: readers load the current
// Snapshot atomically and never block, while the update methods
// (ApplyFlowMod, SetParams, Compact, Swap) serialize on an internal mutex,
// change the writer's table, and publish it as the next Snapshot.
type Handle struct {
	mu   sync.Mutex
	work *PathTable // guarded by mu
	// nRewrites counts the rules of work's configurations that rewrite
	// headers, and bddBase is work's header-space size at its last
	// from-scratch build. ApplyFlowMod derives both on first use and keeps
	// them; bddBase 0 marks them underived (after Swap).
	nRewrites int // guarded by mu
	bddBase   int // guarded by mu
	cur       atomic.Pointer[Snapshot]
	// deltas, reruns and rebuilds count ApplyFlowMod's FlowMods by path
	// (see FlowModPaths).
	deltas, reruns, rebuilds atomic.Uint64
}

// NewHandle wraps pt and publishes its first snapshot. The Handle owns pt
// from here on: callers must not mutate pt directly anymore (use the
// Handle's update methods, or Inspect for serialized read access).
func NewHandle(pt *PathTable) *Handle {
	h := &Handle{work: pt}
	h.publish(true)
	return h
}

// publish makes the writer table's present state the current snapshot.
// The shards written since the last publication (owned) get a fresh
// epoch, every shard does when renew is set, and the others keep the
// epoch the previous snapshot gave them. Clearing owned then hands every
// shard map to the snapshot: the table's next write to a shard clones it
// first.
//
// lint:held mu (or, in NewHandle, h is not shared yet)
func (h *Handle) publish(renew bool) {
	pt := h.work
	s := &Snapshot{pairs: pt.pairs, view: pt.Space.T.View(), space: pt.Space, params: pt.Params, stats: pt.Stats()}
	e := nextEpoch()
	prev := h.cur.Load()
	for i := range s.epochs {
		if renew || prev == nil || pt.owned[i] {
			s.epochs[i] = e
		} else {
			s.epochs[i] = prev.epochs[i]
		}
	}
	pt.owned = [pairShards]bool{}
	h.cur.Store(s)
}

// Current returns the latest published Snapshot. Callers that verify a
// batch of reports against one consistent table state hold on to the
// returned snapshot rather than calling h.Verify per report.
//
//lint:allocfree
func (h *Handle) Current() *Snapshot { return h.cur.Load() }

// SetParams re-derives every tag under a new Bloom configuration and
// publishes the result, renewing every shard's epoch.
func (h *Handle) SetParams(p bloom.Params) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.work.SetParams(p)
	h.publish(true)
}

// Compact garbage-collects the writer table's private indexes. Path entries
// are untouched, so there is nothing new to publish.
func (h *Handle) Compact() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.work.Compact()
}

// Swap replaces the table wholesale: build receives the current table (for
// its Configs/Space) and returns its successor, and every shard's epoch is
// renewed. Returning the received table republishes it, renewing only the
// epochs of shards build wrote.
func (h *Handle) Swap(build func(old *PathTable) *PathTable) {
	h.mu.Lock()
	defer h.mu.Unlock()
	old := h.work
	h.work = build(old)
	h.bddBase = 0
	h.publish(h.work != old)
}

// Inspect runs fn on the writer table under the update lock, without
// republishing. It serializes fn against all updates, so fn may run
// operations that extend the BDD (localization, repair planning) — but it
// must not change entries, arrivals, or tags; use the update methods for
// that.
func (h *Handle) Inspect(fn func(pt *PathTable)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fn(h.work)
}

// Table exposes the writer table for single-threaded call sites (stats
// dumps, experiment harnesses). Any use concurrent with the Handle's update
// methods must go through Inspect instead.
func (h *Handle) Table() *PathTable {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.work
}

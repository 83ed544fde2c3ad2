// Package core implements VeriDP's verification server: the path table
// (§3.4), its construction from control-plane configurations via
// Algorithm 2, tag-report verification via Algorithm 3, Bloom-filter-guided
// fault localization via Algorithm 4 (plus the strawman baseline §4.3
// rejects), and the incremental path-table update of §4.4.
//
// The path table maps an ⟨inport, outport⟩ pair to the list of paths a
// packet may legitimately take between those edge ports. Each path entry
// holds the BDD of admissible headers, the hop sequence, and the
// Bloom-filter tag a correctly-forwarded packet accumulates.
package core

import (
	"fmt"
	"maps"
	"sort"

	"veridp/internal/bdd"
	"veridp/internal/bloom"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/topo"
)

// PathEntry is one path of the path table: ⟨headers, path, tag⟩. An entry is
// immutable once stored: an update that changes a path's header set or tag
// stores a new entry, so a reader holding an old one never sees it move.
type PathEntry struct {
	// Headers is the set of packet headers admitted along this path.
	Headers bdd.Ref
	// Path is the hop sequence from entry to exit.
	Path topo.Path
	// Tag is the Bloom fold of the path's hops.
	Tag bloom.Tag
}

// String renders the entry compactly.
func (e *PathEntry) String() string {
	return fmt.Sprintf("{path %v tag %v}", e.Path, e.Tag)
}

// tableKey indexes the path table by entry and exit port.
type tableKey struct {
	In  topo.PortKey
	Out topo.PortKey
}

// pairShards is the number of shard maps a pairIndex spreads its pairs
// over: enough that a rule update clones a small fraction of the pairs,
// few enough that copying the index at publication is one cache-resident
// array copy.
const (
	pairShardBits = 6
	pairShards    = 1 << pairShardBits
)

// pairIndex maps every ⟨inport, outport⟩ pair to its paths. It is held by
// value, and its shard maps are shared, by the writer's table and by every
// published Snapshot; see the sharing rules in handle.go.
//
// The shard key is the exit port alone. A rule change moves a header set
// between two output ports of one switch, and those headers leave the
// network through few exits, but they may have entered anywhere — so the
// pairs one update rewrites agree on Out and differ in In. Keyed by exit
// they land in a handful of shards; keyed by the whole pair they would
// scatter over all of them and every update would clone the full index.
type pairIndex [pairShards]map[tableKey][]*PathEntry

// shard picks the pair's shard from its exit port.
//
//lint:allocfree
func (k tableKey) shard() uint32 {
	return exitShard(uint32(k.Out.Switch)<<16 | uint32(k.Out.Port))
}

// exitShard maps an exit port, packed as switch<<16 | port, to its shard:
// Fibonacci hashing, of which the top pairShardBits are kept.
//
//lint:allocfree
func exitShard(out uint32) uint32 {
	return out * 0x9e3779b1 >> (32 - pairShardBits)
}

// get returns a pair's paths, nil when the pair has none.
//
//lint:allocfree
func (p *pairIndex) get(k tableKey) []*PathEntry { return p[k.shard()][k] }

// each calls fn for every populated pair; fn may call setPair for the pair
// it was handed.
func (p *pairIndex) each(fn func(k tableKey, es []*PathEntry)) {
	for _, shard := range p {
		for k, es := range shard {
			fn(k, es)
		}
	}
}

// entries calls fn for every entry, pairs in ⟨inport, outport⟩ order.
func (p *pairIndex) entries(fn func(in, out topo.PortKey, e *PathEntry)) {
	var keys []tableKey
	p.each(func(k tableKey, _ []*PathEntry) { keys = append(keys, k) })
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.In != b.In {
			if a.In.Switch != b.In.Switch {
				return a.In.Switch < b.In.Switch
			}
			return a.In.Port < b.In.Port
		}
		if a.Out.Switch != b.Out.Switch {
			return a.Out.Switch < b.Out.Switch
		}
		return a.Out.Port < b.Out.Port
	})
	for _, k := range keys {
		for _, e := range p.get(k) {
			fn(k.In, k.Out, e)
		}
	}
}

// arrival records that, during Algorithm 2's recursive search, the header
// set Headers reached switch-port At having entered the network at Inport
// and traversed Prefix so far. The incremental update replays forwarding
// from these records when a rule changes a switch's behavior. Arrivals are
// private to the writer, so unlike path entries they are updated in place.
type arrival struct {
	Inport  topo.PortKey
	At      topo.PortID
	Headers bdd.Ref
	Prefix  topo.Path
	Tag     bloom.Tag

	deleted bool
	// next holds the arrivals one hop on, each reached out of a
	// different port: those whose Prefix extends this one's by a hop.
	next []*arrival
}

// child returns a's arrival one hop on through port y, nil when none.
func (a *arrival) child(y topo.PortID) *arrival {
	for _, c := range a.next {
		if c.Prefix[len(c.Prefix)-1].Out == y {
			return c
		}
	}
	return nil
}

// PathTable is the verification server's model of the control plane.
// Methods are not safe for concurrent use on their own; wrap the table in
// a Handle to get lock-free concurrent verification with serialized,
// atomically-published updates (the multi-threading §6.4 anticipates).
//
// The pair index follows three sharing rules, which are what let a Handle
// publish the table without copying it: a stored PathEntry is never
// written; a stored per-pair slice is never written below its length
// (appending past it is fine — no holder of the shorter slice can see the
// new element); and a shard map is written only while owned says no
// Snapshot can reach it. Every change to the index goes through setPair.
type PathTable struct {
	Net    *topo.Network
	Space  *header.Space
	Params bloom.Params

	// Configs is the logical (control-plane) configuration used to compute
	// intended paths during localization.
	Configs map[topo.SwitchID]*flowtable.SwitchConfig

	pairs pairIndex
	// owned marks the shard maps allocated since the last publication —
	// the only ones setPair may write in place. Handle.publish clears it.
	owned [pairShards]bool
	// Running totals over pairs, behind Stats. setPair keeps nPairs and
	// nPaths; nHops moves where a path is first stored (addPath) or
	// dropped (the incremental shrink).
	nPairs, nPaths, nHops int

	// hopIndex lists the pairs with a path that exits through a given
	// switch port (including ⊥ exits), for §4.4's "paths that pass port y"
	// step. A list names a pair once per such path, and may still name one
	// whose paths have since left the port: the shrink step re-checks each
	// path, and Compact rebuilds the lists. nIndexed counts the names in
	// all lists; nHops of them are live.
	hopIndex map[topo.PortKey][]tableKey
	nIndexed int

	// arrivals and arrivalIndex support incremental re-traversal: arrivals
	// by switch, and by hops of their prefixes for shrinking. nArrivals
	// counts the records, nDead those an incremental shrink emptied;
	// Compact drops the dead ones.
	arrivals         map[topo.SwitchID][]*arrival
	arrivalIndex     map[topo.PortKey][]*arrival
	nArrivals, nDead int

	// transfer caches every switch's guarded transfer functions, always
	// those of its present configuration: an incremental update replaces
	// the edited switch's guards inside the edited rule's region, a re-run
	// recomputes that switch's functions.
	transfer map[topo.SwitchID]map[flowtable.PortPair][]flowtable.TransferEntry
}

// newPathTable returns an empty table over the given network and space.
func newPathTable(net *topo.Network, space *header.Space, params bloom.Params, configs map[topo.SwitchID]*flowtable.SwitchConfig) *PathTable {
	return &PathTable{
		Net:          net,
		Space:        space,
		Params:       params,
		Configs:      configs,
		hopIndex:     make(map[topo.PortKey][]tableKey),
		arrivals:     make(map[topo.SwitchID][]*arrival),
		arrivalIndex: make(map[topo.PortKey][]*arrival),
		transfer:     make(map[topo.SwitchID]map[flowtable.PortPair][]flowtable.TransferEntry, len(configs)),
	}
}

// setPair stores es as the pair's paths (an empty es removes the pair),
// cloning the shard map first if a published Snapshot may still read it.
// es must be a fresh slice, or the stored one appended to.
func (pt *PathTable) setPair(k tableKey, es []*PathEntry) {
	i := k.shard()
	if !pt.owned[i] {
		if pt.pairs[i] = maps.Clone(pt.pairs[i]); pt.pairs[i] == nil {
			pt.pairs[i] = make(map[tableKey][]*PathEntry)
		}
		pt.owned[i] = true
	}
	old := len(pt.pairs[i][k])
	pt.nPaths += len(es) - old
	if len(es) == 0 {
		delete(pt.pairs[i], k)
		if old > 0 {
			pt.nPairs--
		}
		return
	}
	pt.pairs[i][k] = es
	if old == 0 {
		pt.nPairs++
	}
}

// PathsPerPair returns the path count of every populated pair, sorted
// ascending — the distribution Figure 6 plots.
func (pt *PathTable) PathsPerPair() []int {
	out := make([]int, 0, pt.nPairs)
	pt.pairs.each(func(_ tableKey, es []*PathEntry) { out = append(out, len(es)) })
	sort.Ints(out)
	return out
}

// Lookup returns the paths for an ⟨inport, outport⟩ pair. It is read-only,
// so Lookup and Verify may run concurrently from many goroutines as long as
// no update (SetParams, Compact, an incremental update) runs at the same
// time.
//
//lint:allocfree
func (pt *PathTable) Lookup(in, out topo.PortKey) []*PathEntry {
	return pt.pairs.get(tableKey{in, out})
}

// Entries invokes fn for every entry, in pair order; fn must not mutate the
// table.
func (pt *PathTable) Entries(fn func(in, out topo.PortKey, e *PathEntry)) {
	pt.pairs.entries(fn)
}

// addPath inserts a path entry, merging header sets when the identical hop
// sequence is already present for the pair (which only happens during
// incremental updates). A new entry keeps path, which the caller must not
// write again.
func (pt *PathTable) addPath(in, out topo.PortKey, headers bdd.Ref, path topo.Path, tag bloom.Tag) {
	k := tableKey{in, out}
	es := pt.pairs.get(k)
	for i, e := range es {
		if samePath(e.Path, path) {
			merged := append([]*PathEntry(nil), es...)
			merged[i] = &PathEntry{Headers: pt.Space.T.Or(e.Headers, headers), Path: e.Path, Tag: e.Tag}
			pt.setPair(k, merged)
			return
		}
	}
	e := &PathEntry{Headers: headers, Path: path, Tag: tag}
	pt.setPair(k, append(es, e))
	pt.nHops += len(e.Path)
	pt.indexHops(k, e.Path)
}

// indexHops lists pair k under every port its path exits through.
func (pt *PathTable) indexHops(k tableKey, path topo.Path) {
	for _, hop := range path {
		pk := topo.PortKey{Switch: hop.Switch, Port: hop.Out}
		pt.hopIndex[pk] = append(pt.hopIndex[pk], k)
	}
	pt.nIndexed += len(path)
}

// addArrival records a traversal arrival for incremental updates.
func (pt *PathTable) addArrival(sw topo.SwitchID, a *arrival) {
	pt.arrivals[sw] = append(pt.arrivals[sw], a)
	pt.nArrivals++
	for _, hop := range a.Prefix {
		pk := topo.PortKey{Switch: hop.Switch, Port: hop.Out}
		pt.arrivalIndex[pk] = append(pt.arrivalIndex[pk], a)
	}
}

// samePath compares hop sequences.
func samePath(a, b topo.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SetParams re-derives every tag (entries and traversal arrivals) under a
// new Bloom configuration — the Figure 12 experiment sweeps tag sizes
// without re-running Algorithm 2, since tags are a pure fold of each path.
func (pt *PathTable) SetParams(p bloom.Params) {
	pt.Params = p
	pt.pairs.each(func(k tableKey, es []*PathEntry) {
		retagged := make([]*PathEntry, len(es))
		for i, e := range es {
			retagged[i] = &PathEntry{Headers: e.Headers, Path: e.Path, Tag: pt.foldPath(e.Path)}
		}
		pt.setPair(k, retagged)
	})
	for _, as := range pt.arrivals {
		for _, a := range as {
			a.Tag = pt.foldPath(a.Prefix)
		}
	}
}

// Stats summarizes the table for Table 2: populated ⟨inport, outport⟩
// pairs ("# entries"), paths ("# paths"), and mean hops per path.
type Stats struct {
	Pairs         int
	Paths         int
	AvgPathLength float64
}

// Stats reads the summary off the running totals; it changes nothing.
func (pt *PathTable) Stats() Stats {
	st := Stats{Pairs: pt.nPairs, Paths: pt.nPaths}
	if st.Paths > 0 {
		st.AvgPathLength = float64(pt.nHops) / float64(st.Paths)
	}
	return st
}

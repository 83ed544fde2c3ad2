// Handle tests: snapshot publication correctness (a verdict never observes
// a half-applied update), equivalence with the single-threaded table, and
// the allocation-free guarantee of the verification hot path.

package core

import (
	"sync"
	"testing"

	"veridp/internal/bloom"
	"veridp/internal/controller"
	"veridp/internal/dataplane"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/openflow"
	"veridp/internal/packet"
	"veridp/internal/topo"
)

// diamondEnv builds Figure 5's topology with prefix routing: traffic to
// 10.0.2.0/24 rides S1→S2→S3, and so does H3's /32 on S1 until a FlowModify
// moves it (move) onto the direct S1→S3 link. Both routes share the
// ⟨S1.1, S3.2⟩ pair but fold different tags, which is exactly the shape a
// torn update would confuse.
type diamondEnv struct {
	pt   *PathTable
	s1   topo.SwitchID
	host uint64 // the rule ID of H3's /32 on S1
	hdr  header.Header
	pair [2]topo.PortKey // inport, outport of the H1→H3 flow
}

func newDiamondEnv(t *testing.T) *diamondEnv {
	t.Helper()
	n := topo.Figure5()
	space := header.NewSpace()
	f := dataplane.NewFabric(n)
	c := controller.New(n, &dataplane.FabricInstaller{Fabric: f})
	s1 := n.SwitchByName("S1").ID
	s2 := n.SwitchByName("S2").ID
	s3 := n.SwitchByName("S3").ID
	dst24 := flowtable.Prefix{IP: 0x0a000200, Len: 24}
	var host uint64
	for _, in := range []struct {
		sw topo.SwitchID
		r  flowtable.Rule
	}{
		{s1, flowtable.Rule{Priority: 24, Match: flowtable.Match{DstPrefix: dst24}, Action: flowtable.ActOutput, OutPort: 3}},
		{s2, flowtable.Rule{Priority: 24, Match: flowtable.Match{DstPrefix: dst24}, Action: flowtable.ActOutput, OutPort: 2}},
		{s3, flowtable.Rule{Priority: 24, Match: flowtable.Match{DstPrefix: dst24}, Action: flowtable.ActOutput, OutPort: 2}},
		{s1, hostRoute(3)},
	} {
		id, err := c.InstallRule(in.sw, in.r)
		if err != nil {
			t.Fatal(err)
		}
		host = id // the last one installed is H3's /32
	}
	pt := (&Builder{Net: n, Space: space, Params: bloom.DefaultParams, Configs: c.Logical()}).Build()
	return &diamondEnv{
		pt:   pt,
		s1:   s1,
		host: host,
		hdr:  header.Header{SrcIP: 0x0a000101, DstIP: 0x0a000201, Proto: header.ProtoTCP, DstPort: 80},
		pair: [2]topo.PortKey{{Switch: s1, Port: 1}, {Switch: s3, Port: 2}},
	}
}

// hostRoute is S1's rule for H3's /32, out of port 3 (towards S2) or 4
// (the direct link to S3).
func hostRoute(port topo.PortID) flowtable.Rule {
	host32 := flowtable.Prefix{IP: 0x0a000201, Len: 32}
	return flowtable.Rule{Priority: 32, Match: flowtable.Match{DstPrefix: host32}, Action: flowtable.ActOutput, OutPort: port}
}

// move sends H3's /32 on S1 out of port through h.ApplyFlowMod.
func (d *diamondEnv) move(t testing.TB, h *Handle, port topo.PortID) {
	t.Helper()
	f := &openflow.FlowMod{Command: openflow.FlowModify, Switch: d.s1, RuleID: d.host, Rule: hostRoute(port)}
	if err := h.ApplyFlowMod(d.s1, f); err != nil {
		t.Fatal(err)
	}
}

// tagFor finds the tag of the pair's entry admitting the flow's header in
// the current snapshot.
func (d *diamondEnv) tagFor(t *testing.T, s *Snapshot) bloom.Tag {
	t.Helper()
	for _, e := range s.Lookup(d.pair[0], d.pair[1]) {
		if d.pt.Space.Contains(e.Headers, d.hdr) {
			return e.Tag
		}
	}
	t.Fatal("no entry admits the flow header")
	return 0
}

// TestHandleStormOneVerdict is the torn-update regression test: reader
// goroutines verify two reports — one valid before a rule change, one valid
// after — against single pinned snapshots while a writer flips the rule
// through ApplyFlowMod as fast as it can. Every snapshot must satisfy
// "exactly one of the two reports verifies, the other fails as a tag
// mismatch": a half-applied update (shrink done, re-traversal pending)
// would break it. Run under -race this also proves the publication's
// happens-before edges.
func TestHandleStormOneVerdict(t *testing.T) {
	d := newDiamondEnv(t)
	h := NewHandle(d.pt)

	tagA := d.tagFor(t, h.Current()) // via S2
	d.move(t, h, 4)
	tagB := d.tagFor(t, h.Current()) // direct S1→S3
	if tagA == tagB {
		t.Fatal("both routes fold the same tag; the storm test needs them distinct")
	}
	rA := &packet.Report{Inport: d.pair[0], Outport: d.pair[1], Header: d.hdr, Tag: tagA}
	rB := &packet.Report{Inport: d.pair[0], Outport: d.pair[1], Header: d.hdr, Tag: tagB}

	const flips = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Current() // pin ONE snapshot for both verdicts
				vA, vB := s.Verify(rA), s.Verify(rB)
				if vA.OK == vB.OK {
					t.Errorf("torn snapshot: before-report OK=%v, after-report OK=%v", vA.OK, vB.OK)
					return
				}
				for _, v := range []Verdict{vA, vB} {
					if !v.OK && v.Reason != FailTagMismatch {
						t.Errorf("losing report failed with %v, want FailTagMismatch", v.Reason)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < flips; i++ {
		d.move(t, h, 3)
		d.move(t, h, 4)
	}
	close(stop)
	wg.Wait()
}

// TestHandleMatchesTable checks that the published snapshot agrees with the
// writer table after every update: same pairs, same headers/paths/tags.
func TestHandleMatchesTable(t *testing.T) {
	d := newDiamondEnv(t)
	h := NewHandle(d.pt)

	check := func(step string) {
		t.Helper()
		s := h.Current()
		pt := h.Table()
		seen := 0
		pt.Entries(func(in, out topo.PortKey, e *PathEntry) {
			seen++
			var twin *PathEntry
			for _, fe := range s.Lookup(in, out) {
				if samePath(fe.Path, e.Path) {
					twin = fe
					break
				}
			}
			if twin == nil {
				t.Fatalf("%s: entry %v missing from snapshot", step, e)
			}
			if twin.Headers != e.Headers || twin.Tag != e.Tag {
				t.Fatalf("%s: snapshot entry diverged: %v vs %v", step, twin, e)
			}
		})
		if seen == 0 {
			t.Fatalf("%s: table has no entries", step)
		}
	}

	check("initial")
	d.move(t, h, 4)
	check("after the move")
	d.move(t, h, 3)
	check("after the move back")
	h.SetParams(bloom.Params{MBits: 32})
	check("after SetParams")
	h.Compact()
	check("after Compact")
}

// TestPublishCopiesNoEntries pins what publication costs: the snapshot takes
// the writer's pair index as it stands, so republishing an FT(6) table (or
// compacting it) allocates the Snapshot and nothing that grows with the
// table — no per-entry or per-pair copy.
func TestPublishCopiesNoEntries(t *testing.T) {
	n := topo.FatTree(6)
	c := controller.New(n, &dataplane.FabricInstaller{Fabric: dataplane.NewFabric(n)})
	if err := c.RouteAllHosts(); err != nil {
		t.Fatal(err)
	}
	h := NewHandle(buildTable(n, c))
	if st := h.Current().Stats(); st.Pairs < 1000 {
		t.Fatalf("FT(6) table has only %d pairs; the bound below would prove nothing", st.Pairs)
	}
	h.Compact() // the first rebuild may still grow an index list
	const maxAllocs = 4
	identity := func(old *PathTable) *PathTable { return old }
	if avg := testing.AllocsPerRun(20, func() { h.Swap(identity) }); avg > maxAllocs {
		t.Errorf("Swap(identity) allocates %.0f/op, want ≤ %d", avg, maxAllocs)
	}
	if avg := testing.AllocsPerRun(20, h.Compact); avg > maxAllocs {
		t.Errorf("Compact allocates %.0f/op, want ≤ %d", avg, maxAllocs)
	}
}

// TestVerifyAllocationFree pins the hot path's zero-allocation guarantee:
// PathTable.Verify, the snapshot twin, and every verdict-cache path —
// probe hit, probe miss + fill, and the batch API — must not allocate per
// report.
func TestVerifyAllocationFree(t *testing.T) {
	d := newDiamondEnv(t)
	h := NewHandle(d.pt)
	r := &packet.Report{Inport: d.pair[0], Outport: d.pair[1], Header: d.hdr, Tag: d.tagFor(t, h.Current())}

	snap := h.Current()
	if v := snap.Verify(r); !v.OK {
		t.Fatalf("witness report failed: %v", v.Reason)
	}
	if avg := testing.AllocsPerRun(200, func() { snap.Verify(r) }); avg != 0 {
		t.Errorf("Snapshot.Verify allocates %.1f/op, want 0", avg)
	}
	pt := h.Table()
	if avg := testing.AllocsPerRun(200, func() { pt.Verify(r) }); avg != 0 {
		t.Errorf("PathTable.Verify allocates %.1f/op, want 0", avg)
	}

	// Cache probe hit: prime once, then every run is a pure probe.
	cache := NewVerdictCache(0)
	in := [1]packet.Report{*r}
	var out [1]Verdict
	snap.VerifyBatch(cache, in[:], out[:])
	if avg := testing.AllocsPerRun(200, func() { snap.VerifyBatch(cache, in[:], out[:]) }); avg != 0 {
		t.Errorf("VerifyBatch (probe hit) allocates %.1f/op, want 0", avg)
	}
	if cache.Hits() == 0 {
		t.Fatal("hit path never exercised")
	}

	// Cache probe miss + fill: vary the source port so every run misses
	// and stores.
	miss := *r
	if avg := testing.AllocsPerRun(200, func() {
		miss.Header.SrcPort++
		in[0] = miss
		snap.VerifyBatch(cache, in[:], out[:])
	}); avg != 0 {
		t.Errorf("VerifyBatch (probe miss + fill) allocates %.1f/op, want 0", avg)
	}

	// Uncached batch arm (nil cache).
	batch := [4]packet.Report{*r, *r, *r, *r}
	var vs [4]Verdict
	if avg := testing.AllocsPerRun(200, func() { snap.VerifyBatch(nil, batch[:], vs[:]) }); avg != 0 {
		t.Errorf("VerifyBatch (uncached) allocates %.1f/op, want 0", avg)
	}
}

// TestVerdictCacheCoherence is the in-package differential check: cached
// verdicts must be identical (OK, Reason, Matched pointer) to uncached
// ones, and a publication must kill exactly the cached entries of the
// exit-port shards it changed — the per-shard epoch invariant that lets
// publication skip any cache flush.
func TestVerdictCacheCoherence(t *testing.T) {
	d := newDiamondEnv(t)
	h := NewHandle(d.pt)
	snap := h.Current()
	cache := NewVerdictCache(0)

	good := packet.Report{Inport: d.pair[0], Outport: d.pair[1], Header: d.hdr, Tag: d.tagFor(t, h.Current())}
	bad := good
	bad.Tag ^= 0x2a
	nopair := good
	nopair.Outport.Port = 9
	// H1's traffic to an address nothing routes drops at S1: a pair no
	// change to the 10.0.2.0/24 routes touches.
	drop := packet.Report{Inport: d.pair[0], Outport: topo.PortKey{Switch: d.s1, Port: topo.DropPort}, Header: d.hdr}
	drop.Header.DstIP = 0x0a630001
	for _, e := range snap.Lookup(drop.Inport, drop.Outport) {
		if d.pt.Space.Contains(e.Headers, drop.Header) {
			drop.Tag = e.Tag
		}
	}
	if (tableKey{Out: drop.Outport}).shard() == (tableKey{Out: good.Outport}).shard() {
		t.Fatal("the dropped and the delivered flow exit through one shard; the test needs two")
	}

	// verify checks every cached verdict against the uncached one and
	// returns how many came from the cache and how many were recomputed.
	verify := func(step string, s *Snapshot, reports ...packet.Report) (hits, misses uint64) {
		t.Helper()
		h0, m0 := cache.Hits(), cache.Misses()
		out := make([]Verdict, len(reports))
		s.VerifyBatch(cache, reports, out)
		for i := range reports {
			if want := s.Verify(&reports[i]); out[i] != want {
				t.Fatalf("%s, report %d: cached verdict %+v != uncached %+v", step, i, out[i], want)
			}
		}
		return cache.Hits() - h0, cache.Misses() - m0
	}

	all := []packet.Report{good, bad, nopair, drop}
	if _, misses := verify("first pass", snap, all...); misses != uint64(len(all)) {
		t.Fatalf("first pass recomputed %d of %d", misses, len(all))
	}
	if hits, _ := verify("second pass", snap, all...); hits != uint64(len(all)) {
		t.Fatalf("second pass served %d of %d from the cache", hits, len(all))
	}
	if v := snap.Verify(&drop); !v.OK {
		t.Fatalf("dropped flow's report fails: %v", v.Reason)
	}

	// A delta: moving the host /32 re-routes the flow, so the good
	// report's tag goes stale. Its shard gets a new epoch and its entry is
	// recomputed; the drop pair's shard keeps its epoch, and its verdict
	// stays cached.
	d.move(t, h, 4)
	snap2 := h.Current()
	if out := good.Outport; snap2.Epoch(out) <= snap.Epoch(out) {
		t.Fatalf("epoch of the flow's exit shard did not advance: %d -> %d", snap.Epoch(out), snap2.Epoch(out))
	}
	if out := drop.Outport; snap2.Epoch(out) != snap.Epoch(out) {
		t.Fatalf("epoch of an untouched shard moved: %d -> %d", snap.Epoch(out), snap2.Epoch(out))
	}
	if hits, misses := verify("after delta, untouched shard", snap2, drop); hits != 1 || misses != 0 {
		t.Fatalf("report through an untouched shard: %d hits, %d misses; want a hit", hits, misses)
	}
	if hits, misses := verify("after delta, touched shard", snap2, good); hits != 0 || misses != 1 {
		t.Fatalf("report through the touched shard: %d hits, %d misses; want a recompute", hits, misses)
	}
	if v := snap2.Verify(&good); v.OK {
		t.Fatal("old-route report still verifies after the delta")
	}
	// The old snapshot keeps answering with its own epochs.
	if v := snap.Verify(&good); !v.OK {
		t.Fatalf("pinned old snapshot changed its verdict: %+v", v)
	}

	// Republishing the same table invalidates nothing; a re-tag and a
	// table swapped in wholesale invalidate everything.
	verify("refill", snap2, all...)
	h.Swap(func(old *PathTable) *PathTable { return old })
	if hits, _ := verify("after Swap(identity)", h.Current(), all...); hits != uint64(len(all)) {
		t.Fatalf("Swap(identity) invalidated %d of %d cached verdicts", uint64(len(all))-hits, len(all))
	}
	h.SetParams(bloom.DefaultParams)
	if _, misses := verify("after SetParams", h.Current(), all...); misses != uint64(len(all)) {
		t.Fatalf("SetParams left %d of %d cached verdicts valid", uint64(len(all))-misses, len(all))
	}
	h.Swap(func(old *PathTable) *PathTable {
		return (&Builder{Net: old.Net, Space: old.Space, Params: old.Params, Configs: old.Configs}).Build()
	})
	if _, misses := verify("after Swap to a new table", h.Current(), all...); misses != uint64(len(all)) {
		t.Fatalf("Swap to a new table left %d of %d cached verdicts valid", uint64(len(all))-misses, len(all))
	}
}

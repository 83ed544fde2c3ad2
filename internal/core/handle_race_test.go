//go:build race

// Race-gated storm: ApplyFlowMod, SetParams, Compact and Swap all work on
// the one table whose shard maps, slices and entries every published
// snapshot shares, while readers verify and walk entries lock-free. The
// plain test suite covers each update method's correctness single-threaded
// (TestHandleMatchesTable); this file exists for what only the race
// detector can prove — that no writer ever stores into memory a snapshot
// can reach (the three sharing rules in handle.go).

package core

import (
	"sync"
	"testing"

	"veridp/internal/bdd"
	"veridp/internal/bloom"
	"veridp/internal/packet"
	"veridp/internal/topo"
)

// TestHandleCompactSwapStorm runs four kinds of writer against
// pinned-snapshot readers: one flips the host route through ApplyFlowMod,
// and a maintenance loop calls Compact, Swap with a republish-unchanged
// build, and SetParams with the parameters already in force (every entry
// is re-stored, no tag moves). The reader invariant is the same as
// TestHandleStormOneVerdict — each pinned snapshot verifies exactly one
// of the two reports — and each reader also reads every field of every
// entry its snapshot returns for any pair, so an in-place write to a
// shared entry, slice or shard map is a reported race.
func TestHandleCompactSwapStorm(t *testing.T) {
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

	// Every pair of the table: the flow's own, which each flip rewrites,
	// and the drop pairs no delta touches, whose entries only SetParams
	// replaces.
	var pairs []tableKey
	h.Table().Entries(func(in, out topo.PortKey, _ *PathEntry) { pairs = append(pairs, tableKey{in, out}) })

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
				for _, k := range pairs {
					for _, e := range s.Lookup(k.In, k.Out) {
						var tag bloom.Tag
						for _, hop := range e.Path {
							tag = tag.Union(s.Params().Hash(hop.Bytes()))
						}
						if tag != e.Tag || e.Headers == bdd.False {
							t.Errorf("snapshot entry %v: path folds to %v, headers %v", e, tag, e.Headers)
							return
						}
					}
				}
			}
		}()
	}

	// Maintenance writers serialize with ApplyFlowMod on h.mu, so the reader
	// invariant must hold across every interleaving. The flips go on until
	// the maintenance rounds are done, so neither side can finish before
	// the other was scheduled.
	const flips, rounds = 100, 50
	maintDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(maintDone)
		for i := 0; i < rounds; i++ {
			h.Compact()
			h.Swap(func(old *PathTable) *PathTable { return old })
			h.SetParams(bloom.DefaultParams)
		}
	}()

	for i, busy := 0, true; i < flips || busy; i++ {
		select {
		case <-maintDone:
			busy = false
		default:
		}
		d.move(t, h, 3)
		d.move(t, h, 4)
	}
	close(stop)
	wg.Wait()

	// After the dust settles the snapshot still matches the writer table's
	// final state: the host route is installed, so rB wins.
	if v := h.Current().Verify(rB); !v.OK {
		t.Errorf("post-storm snapshot lost the final route: %v", v.Reason)
	}
	if v := h.Current().Verify(rA); v.OK {
		t.Error("post-storm snapshot still verifies the stale route")
	}
}

// TestVerdictCacheConcurrentPublish hammers per-goroutine verdict caches
// against concurrent snapshot publications. Each reader pins a snapshot,
// verifies through its own cache, and differentially checks the cached
// verdict against the uncached one on the same pinned snapshot — while
// the main goroutine churns ApplyFlowMod/Compact/SetParams, renewing the
// flow's shard epoch (ApplyFlowMod) or every epoch (SetParams) as fast as
// it can. Under -race this also proves the epoch stamp's
// happens-before edge: a cache is single-writer, but the snapshots (and
// epochs) it keys on are published across goroutines.
func TestVerdictCacheConcurrentPublish(t *testing.T) {
	d := newDiamondEnv(t)
	h := NewHandle(d.pt)

	tagA := d.tagFor(t, h.Current())
	d.move(t, h, 4)
	tagB := d.tagFor(t, h.Current())
	rA := packet.Report{Inport: d.pair[0], Outport: d.pair[1], Header: d.hdr, Tag: tagA}
	rB := packet.Report{Inport: d.pair[0], Outport: d.pair[1], Header: d.hdr, Tag: tagB}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cache := NewVerdictCache(8) // small: exercises eviction too
			in := [2]packet.Report{rA, rB}
			var out [2]Verdict
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := h.Current()
				snap.VerifyBatch(cache, in[:], out[:])
				for i := range in {
					if want := snap.Verify(&in[i]); out[i] != want {
						t.Errorf("cached verdict %+v != uncached %+v under epoch %d", out[i], want, snap.Epoch(in[i].Outport))
						return
					}
				}
				if out[0].OK == out[1].OK {
					t.Errorf("torn snapshot through cache: OK=%v/%v", out[0].OK, out[1].OK)
					return
				}
			}
		}()
	}

	const flips = 100
	for i := 0; i < flips; i++ {
		d.move(t, h, 3)
		d.move(t, h, 4)
		h.Compact()
		h.SetParams(bloom.DefaultParams) // re-stores every entry, renews every epoch
	}
	close(stop)
	wg.Wait()
}

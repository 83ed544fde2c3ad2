// Equivalence-class verdict cache: the hot-path answer to §6.4's per-report
// verdict cost. Sampled traffic is heavily repetitive — a handful of elephant
// flows dominate any Zipf-skewed workload — so the common case should be a
// constant-time hash probe, not a BDD membership walk. The cache maps the
// exact report bytes ⟨inport, outport, header, tag, mbits⟩ to the verdict the
// snapshot produced for them, stamped with the epoch of the report's exit
// shard.
//
// Invalidation is free: a Snapshot carries one epoch per exit-port shard of
// its pair index, renewed by every publication that changes the shard
// (handle.go), and a probe only accepts an entry whose stamp equals the
// current epoch of its own exit shard. A report's verdict depends only on
// its ⟨inport, outport⟩ pair's paths, which live in the shard its exit port
// picks, so a publication kills exactly the cached entries whose pairs it
// may have changed — no flush, no writer coordination, no shootdown. A
// stale epoch can never serve a stale verdict because epochs are never
// reused (global counter), so an entry stamped e can only ever be served
// to a verification pinned to a snapshot whose shard still holds the very
// shard map that was current when e was minted — and shard maps a
// snapshot can reach are immutable.
//
// Concurrency: a VerdictCache is single-writer. The collector's reader (or
// a measurement loop) owns one outright, so slot reads and writes need no
// atomics. Only the hit/miss counters are atomic, because stats readers
// fold them from other goroutines.

package core

import (
	"sync/atomic"

	"veridp/internal/packet"
)

// vcDefaultBits sizes the cache when NewVerdictCache is given bits <= 0:
// 2^12 = 4096 slots ≈ 192 KiB per worker, comfortably larger than the
// distinct-flow working set of a skewed workload.
const vcDefaultBits = 12

// vcMaxBits caps the cache at 2^20 slots so a typo'd knob cannot ask for
// gigabytes.
const vcMaxBits = 20

// vcProbeWindow is the linear-probe length. Past it, store evicts the home
// slot; probe gives up and reports a miss. Misses are always safe (the
// caller recomputes), so a short window trades hit rate for bounded work.
const vcProbeWindow = 8

// vcKey packs the full 34-byte report wire encoding into four words. The
// wire format truncates switch and port IDs to 16 bits (packet.Marshal), so
// the packing is lossless: two reports with equal keys are byte-identical
// and must receive the identical verdict.
type vcKey struct {
	k0 uint64 // in.switch<<48 | in.port<<32 | out.switch<<16 | out.port
	k1 uint64 // srcIP<<32 | dstIP
	k2 uint64 // proto<<48 | srcPort<<32 | dstPort<<16 | mbits
	k3 uint64 // tag
}

// keyOf packs a report into its cache key.
//
//lint:allocfree
func keyOf(r *packet.Report) vcKey {
	return vcKey{
		k0: uint64(uint16(r.Inport.Switch))<<48 | uint64(uint16(r.Inport.Port))<<32 |
			uint64(uint16(r.Outport.Switch))<<16 | uint64(uint16(r.Outport.Port)),
		k1: uint64(r.Header.SrcIP)<<32 | uint64(r.Header.DstIP),
		k2: uint64(r.Header.Proto)<<48 | uint64(r.Header.SrcPort)<<32 |
			uint64(r.Header.DstPort)<<16 | uint64(r.MBits),
		k3: uint64(r.Tag),
	}
}

// mix64 is the splitmix64 finalizer: full avalanche over 64 bits.
//
//lint:allocfree
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// shard is the pairIndex shard of the key's exit port, which k0's low 32
// bits hold packed exactly as tableKey.shard packs it.
//
//lint:allocfree
func (k vcKey) shard() uint32 { return exitShard(uint32(k.k0)) }

// hash folds the key words through the mixer.
//
//lint:allocfree
func (k vcKey) hash() uint64 {
	return mix64(k.k0 ^ mix64(k.k1^mix64(k.k2^mix64(k.k3))))
}

// vcSlot is one packed cache entry. meta encodes epoch<<8 | reason<<1 | ok;
// meta==0 marks an empty slot (epochs start at 1, so no live entry encodes
// to zero). Slots are never cleared: an entry dies by its epoch going stale,
// and the slot is reused by the next store that lands on it.
type vcSlot struct {
	key     vcKey
	meta    uint64
	matched *PathEntry
}

// VerdictCache is a fixed-size, power-of-two, open-addressed verdict cache.
// Single-writer: probe and store must be called from one goroutine only
// (give each worker its own cache); Hits and Misses may be read from any.
type VerdictCache struct {
	slots []vcSlot // fixed after NewVerdictCache; single-writer slots
	mask  uint64

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewVerdictCache builds a cache with 2^bits slots. bits <= 0 selects the
// default size; oversized requests are clamped.
func NewVerdictCache(bits int) *VerdictCache {
	if bits <= 0 {
		bits = vcDefaultBits
	}
	if bits > vcMaxBits {
		bits = vcMaxBits
	}
	n := 1 << bits
	return &VerdictCache{slots: make([]vcSlot, n), mask: uint64(n - 1)}
}

// probe looks the key up under its exit shard's epoch. Hitting an empty
// slot ends the scan early: slots are never cleared, so a slot empty now
// was empty at every earlier store, and no entry for this key can live
// beyond it.
//
//lint:allocfree
func (c *VerdictCache) probe(k vcKey, epochs *[pairShards]uint64) (Verdict, bool) {
	epoch := epochs[k.shard()]
	h := k.hash()
	for d := uint64(0); d < vcProbeWindow; d++ {
		s := &c.slots[(h+d)&c.mask]
		if s.meta == 0 {
			return Verdict{}, false
		}
		if s.key == k && s.meta>>8 == epoch {
			return Verdict{
				OK:      s.meta&1 == 1,
				Reason:  FailReason(s.meta >> 1 & 0x7f),
				Matched: s.matched,
			}, true
		}
	}
	return Verdict{}, false
}

// store records the verdict computed for k under its exit shard's epoch.
// It fills the first empty, same-key or stale slot in the probe window —
// a slot is stale when its stamp is not the current epoch of the slot's
// own exit shard — evicting the home slot when the whole window holds
// live entries.
//
//lint:allocfree
func (c *VerdictCache) store(k vcKey, epochs *[pairShards]uint64, v Verdict) {
	meta := epochs[k.shard()]<<8 | uint64(v.Reason)<<1
	if v.OK {
		meta |= 1
	}
	h := k.hash()
	victim := &c.slots[h&c.mask]
	for d := uint64(0); d < vcProbeWindow; d++ {
		s := &c.slots[(h+d)&c.mask]
		if s.meta == 0 || s.key == k || s.meta>>8 != epochs[s.key.shard()] {
			victim = s
			break
		}
	}
	victim.key = k
	victim.matched = v.Matched
	victim.meta = meta
}

// Hits returns the number of probes served from the cache.
func (c *VerdictCache) Hits() uint64 { return c.hits.Load() }

// Misses returns the number of probes that fell through to a full verify.
func (c *VerdictCache) Misses() uint64 { return c.misses.Load() }

// Len returns the slot count (introspection and tests).
func (c *VerdictCache) Len() int { return len(c.slots) }

// VerifyBatch verifies reports[i] into out[i] for every report, all against
// this one snapshot — the batch twin of Verify, amortizing the snapshot pin
// and the cache counter updates over the whole batch. out must be at least
// as long as reports. A nil cache degrades to plain per-report Verify
// (the uncached arm benchmarks compare against).
//
// With a cache, each report costs one hash probe when its exact bytes were
// verified before under the current epoch of its exit shard, and one full
// verify plus a store otherwise. Cached verdicts are identical to uncached
// ones — same OK, Reason, and Matched pointer — because the key covers
// every report byte and entries from any other epoch are unreachable.
//
//lint:allocfree
func (s *Snapshot) VerifyBatch(c *VerdictCache, reports []packet.Report, out []Verdict) {
	if c == nil {
		for i := range reports {
			out[i] = s.Verify(&reports[i])
		}
		return
	}
	var hits, misses uint64
	for i := range reports {
		k := keyOf(&reports[i])
		if v, ok := c.probe(k, &s.epochs); ok {
			out[i] = v
			hits++
			continue
		}
		v := s.Verify(&reports[i])
		c.store(k, &s.epochs, v)
		out[i] = v
		misses++
	}
	c.hits.Add(hits)
	c.misses.Add(misses)
}

// Batch-verification helper for the measurement loops: pin one snapshot,
// own one verdict cache, and reuse the buffers across injections — the
// same pinned-snapshot batch discipline the collector's reader follows (see
// Handle.Current's doc comment), so the experiments measure the production
// verdict path rather than a bespoke single-shot one.

package sim

import (
	"veridp/internal/core"
	"veridp/internal/packet"
)

// BatchVerifier verifies injection results in batches against one pinned
// snapshot through a verdict cache. Single-goroutine use only: the cache
// is single-writer by design.
type BatchVerifier struct {
	snap  *core.Snapshot
	cache *core.VerdictCache
	in    []packet.Report
	out   []core.Verdict
}

// NewBatchVerifier pins snap with a fresh default-size verdict cache.
func NewBatchVerifier(snap *core.Snapshot) *BatchVerifier {
	return &BatchVerifier{snap: snap, cache: core.NewVerdictCache(0)}
}

// Verdicts verifies one injection's reports as a single batch and returns
// one verdict per report, in order. The returned slice is owned by the
// verifier and overwritten by the next call.
func (bv *BatchVerifier) Verdicts(reports []*packet.Report) []core.Verdict {
	if cap(bv.in) < len(reports) {
		bv.in = make([]packet.Report, len(reports))
		bv.out = make([]core.Verdict, len(reports))
	}
	in, out := bv.in[:len(reports)], bv.out[:len(reports)]
	for i, r := range reports {
		in[i] = *r
	}
	bv.snap.VerifyBatch(bv.cache, in, out)
	return out
}

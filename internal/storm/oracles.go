// The invariant oracles. After every campaign step the engine drives a
// probe phase and checks seven properties; violating any one halts the
// campaign with a Failure the minimizer can shrink. Each oracle pins down
// one subsystem (the DESIGN.md table spells the mapping out):
//
//	one-verdict        snapshot publication (core.Handle / core.Snapshot)
//	cache-coherent     the verdict cache (core.VerdictCache per-shard epoch invalidation)
//	incremental-equiv  live updates (core.Handle.ApplyFlowMod: one rule's difference, re-runs under rewrites)
//	no-false-positive  path-table construction + Algorithm 3 verification
//	localization       Algorithm 4 PathInfer / FaultySwitch
//	counter-fold       report pipeline (Sender → Collector worker pool)
//	no-leak            lifecycle contract (ctx-governed Run/Close paths)

package storm

import "fmt"

// Oracle names, as written into failure reports and campaign artifacts.
const (
	// OracleOneVerdict: a report verified twice against one pinned
	// snapshot yields the same verdict — including while Compact/Swap
	// maintenance runs concurrently.
	OracleOneVerdict = "one-verdict"
	// OracleCacheCoherent: a verdict served by the equivalence-class cache
	// is identical (OK, Reason, and Matched entry) to what the uncached
	// Snapshot.Verify computes — checked differentially on every probe
	// report and by replaying a sample ring of cached verdicts after each
	// step, across the epoch changes every publication makes.
	OracleCacheCoherent = "cache-coherent"
	// OracleIncrementalEquiv: the table the monitor maintains from the
	// FlowMod stream — by each rule's difference, or by re-running
	// Algorithm 2 while a rule rewrites headers — publishes exactly the
	// entries and totals of a from-scratch build over the controller's
	// logical state.
	OracleIncrementalEquiv = "incremental-equiv"
	// OracleNoFalsePositive: a probe whose actual path equals its
	// intended path never produces a failing report; on a fault-free
	// prefix that is every probe.
	OracleNoFalsePositive = "no-false-positive"
	// OracleLocalization: with 64-bit tags and a single injected fault,
	// every deviated-and-reported probe is detected, localization
	// recovers the ground-truth path, and the blamed switch is the
	// divergence switch.
	OracleLocalization = "localization"
	// OracleCounterFold: every report the fabric emitted is accounted
	// for — collector shard counters fold exactly to the sent count and
	// the handler invocation count, with zero malformed datagrams.
	OracleCounterFold = "counter-fold"
	// OracleNoLeak: after collector teardown (mid-campaign restart or
	// final shutdown) the goroutine count returns to the pre-deployment
	// baseline.
	OracleNoLeak = "no-leak"
)

// Failure is one oracle violation: the step it surfaced at, the oracle it
// violated, and a human-readable account. It halts the campaign — state
// after a violated invariant proves nothing further.
type Failure struct {
	Step   int    `json:"step"`
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

func (f *Failure) String() string {
	return fmt.Sprintf("step %d: oracle %s: %s", f.Step, f.Oracle, f.Detail)
}

func failf(step int, oracle, format string, args ...any) *Failure {
	return &Failure{Step: step, Oracle: oracle, Detail: fmt.Sprintf(format, args...)}
}

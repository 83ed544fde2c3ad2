// Package storm is VeriDP's network-state fuzzing harness. It generates
// seeded, deterministic campaigns of interleaved control- and data-plane
// actions — rule churn, failover reroutes, the §2.2 fault matrix,
// sampling-rate shifts, monitor/collector restarts, snapshot maintenance —
// runs them against a live sim.Env + core.Handle deployment whose monitor
// follows the controller's FlowMods as the interception proxy's does, and
// checks a set of invariant oracles after every step (see oracles.go). "Consistent
// SDNs through Network State Fuzzing" (Shukla et al.) is the motivating
// observation: randomized state fuzzing finds control/data-plane gaps that
// curated scenarios miss.
//
// Determinism contract: a Campaign fully determines a run. Every step
// carries its own Pick seed and the engine derives a private RNG from it,
// so any subsequence of a campaign's steps replays exactly the same way —
// the property the delta-debugging minimizer (minimize.go) relies on.
// The campaign-level Seed is generator provenance only; replay never
// reads it.
package storm

import (
	"encoding/json"
	"fmt"
)

// Op enumerates the campaign actions.
type Op uint8

const (
	// OpChurnInstall routes a fresh synthetic /32 prefix network-wide
	// through the controller (both planes and the monitor; synthetic
	// prefixes never collide with probe headers).
	OpChurnInstall Op = iota
	// OpChurnDelete removes one previously churned route from both planes.
	OpChurnDelete
	// OpReroute emulates a link flap's control-plane reaction: pin one
	// host pair onto its second equal-cost path with in-port rules.
	OpReroute
	// OpWrongPort rewires a random physical rule to a wrong port (§2.2
	// "switch software bugs").
	OpWrongPort
	// OpBlackhole turns a random physical rule into a drop.
	OpBlackhole
	// OpEvict deletes a random rule from the physical table only.
	OpEvict
	// OpOverflow overflows a random switch's hardware table (Pica8 bug).
	OpOverflow
	// OpMissedRule installs a path-deviating rule that the data plane
	// silently drops (§2.2 "lack of data plane acknowledgement"): the rule
	// exists logically only, so the intended path moves and the packets do
	// not.
	OpMissedRule
	// OpPriorityLoss installs a path-deviating rule whose physical copy
	// loses its priority (the HP ProCurve behavior of §2.2).
	OpPriorityLoss
	// OpSampleShift swaps every switch's sampler (SampleAll or a flow
	// sampler at a random interval).
	OpSampleShift
	// OpCompact garbage-collects the writer table under shadow-verifier
	// stress.
	OpCompact
	// OpSwap rebuilds the table wholesale under shadow-verifier stress.
	OpSwap
	// OpRestartMonitor drops the verification handle and re-derives it
	// from the controller's logical state.
	OpRestartMonitor
	// OpRestartCollector drains, stops, and restarts the UDP collector,
	// checking counter folds and goroutine leaks across the boundary.
	OpRestartCollector
	// OpDesyncParams is the harness self-test: it changes the data plane's
	// tag parameters behind the monitor's back, which deterministically
	// trips the no-false-positive oracle. The generator never emits it
	// unless asked (GenOptions.DesyncWeight); it exists so the failure
	// path — campaign file, minimizer, regression replay — stays
	// exercised end to end.
	OpDesyncParams

	numOps // count sentinel; keep last
)

// opNames is the wire vocabulary of the campaign file format.
var opNames = [numOps]string{
	OpChurnInstall:     "churn-install",
	OpChurnDelete:      "churn-delete",
	OpReroute:          "reroute",
	OpWrongPort:        "wrong-port",
	OpBlackhole:        "blackhole",
	OpEvict:            "evict",
	OpOverflow:         "overflow",
	OpMissedRule:       "missed-rule",
	OpPriorityLoss:     "priority-loss",
	OpSampleShift:      "sample-shift",
	OpCompact:          "compact",
	OpSwap:             "swap",
	OpRestartMonitor:   "restart-monitor",
	OpRestartCollector: "restart-collector",
	OpDesyncParams:     "desync-params",
}

// String names the op.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// ParseOp resolves a campaign-file op name.
func ParseOp(s string) (Op, error) {
	for o, name := range opNames {
		if s == name {
			return Op(o), nil
		}
	}
	return 0, fmt.Errorf("storm: unknown op %q", s)
}

// MarshalJSON writes the op as its name.
func (o Op) MarshalJSON() ([]byte, error) {
	if int(o) >= len(opNames) {
		return nil, fmt.Errorf("storm: cannot encode op %d", uint8(o))
	}
	return json.Marshal(o.String())
}

// UnmarshalJSON reads an op name.
func (o *Op) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	op, err := ParseOp(s)
	if err != nil {
		return err
	}
	*o = op
	return nil
}

// Step is one campaign action. Pick seeds the step's private RNG: every
// random choice the action and its probe phase make derives from Pick
// alone, never from shared state, so steps replay independently.
type Step struct {
	Op   Op    `json:"op"`
	Pick int64 `json:"pick"`
}

// Campaign is the versioned, replayable unit of fuzzing work.
type Campaign struct {
	Version int    `json:"version"`
	Topo    string `json:"topo"`   // ft4 | ft6 | figure5
	MBits   int    `json:"mbits"`  // Bloom tag size the deployment runs
	Probes  int    `json:"probes"` // probe injections after every step
	Seed    int64  `json:"seed"`   // generator provenance; unused on replay
	Steps   []Step `json:"steps"`
}

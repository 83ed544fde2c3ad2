// Fault-localization experiment (Table 3). Methodology from §6.3: flip a
// random rule's output port, run an all-pairs ping mesh, verify every tag
// report, and for each failed verification try to recover the packet's
// actual path with PathInfer. Localization succeeds when the recovered
// path set contains the ground-truth path the packet took.

package sim

import (
	"fmt"
	"math/rand"

	"veridp/internal/faults"
	"veridp/internal/flowtable"
	"veridp/internal/topo"
	"veridp/internal/traffic"
)

// LocalizationResult aggregates Table 3's columns.
type LocalizationResult struct {
	Rounds              int
	FailedVerifications int // "# failed verif."
	RecoveredPaths      int // "# recovered paths"
	CorrectSwitch       int // recovered AND the blamed switch is the faulty one
	StrawmanCorrect     int // §4.3 baseline for the ablation
}

// Probability returns the Table 3 "localization prob." column.
func (r LocalizationResult) Probability() float64 {
	if r.FailedVerifications == 0 {
		return 0
	}
	return float64(r.RecoveredPaths) / float64(r.FailedVerifications)
}

// StrawmanAccuracy returns the same metric for the strawman baseline.
func (r LocalizationResult) StrawmanAccuracy() float64 {
	if r.FailedVerifications == 0 {
		return 0
	}
	return float64(r.StrawmanCorrect) / float64(r.FailedVerifications)
}

// Localization runs the Table 3 experiment for the given number of fault
// rounds. Each round injects one wrong-port fault on a random rule,
// replays the ping mesh, and restores the rule.
func Localization(e *Env, rounds int, seed int64) (LocalizationResult, error) {
	return LocalizationRNG(e, rounds, NewRNG(seed))
}

// LocalizationRNG is Localization drawing from a caller-owned stream.
func LocalizationRNG(e *Env, rounds int, rng *rand.Rand) (LocalizationResult, error) {
	pt := e.Table()
	bv := NewBatchVerifier(e.Handle().Current())
	mesh := traffic.PingMesh(e.Net)
	var result LocalizationResult

	// Faulted rules on switches no ping path crosses are inert; retry such
	// rounds (bounded) so every counted round exercises its fault.
	retries := rounds * 8
	for round := 0; round < rounds && retries > 0; round++ {
		sw, ruleID, ok := faults.RandomRule(e.Fabric, rng)
		if !ok {
			return result, fmt.Errorf("sim: no rules to fault in %s", e.Name)
		}
		inj, err := faults.WrongPort(e.Fabric, sw, ruleID, rng)
		if err != nil {
			return result, err
		}
		result.Rounds++
		failuresBefore := result.FailedVerifications

		for _, ping := range mesh {
			res, err := e.Fabric.InjectFromHost(ping.SrcHost, ping.Header)
			if err != nil {
				return result, err
			}
			verdicts := bv.Verdicts(res.Reports)
			for i, rep := range res.Reports {
				if verdicts[i].OK {
					continue
				}
				result.FailedVerifications++
				blamed, candidates, locOK := pt.Localize(rep)
				if locOK && containsPath(candidates, res.Path) {
					result.RecoveredPaths++
					if blamed == inj.Switch {
						result.CorrectSwitch++
					}
				}
				if strawman, ok := pt.StrawmanLocalize(rep); ok && strawman == inj.Switch {
					result.StrawmanCorrect++
				}
			}
		}

		// Restore the faulted rule.
		err = e.Fabric.Switch(sw).Config.Table.Modify(ruleID, func(r *flowtable.Rule) {
			r.OutPort = inj.OldPort
		})
		if err != nil {
			return result, err
		}
		if result.FailedVerifications == failuresBefore {
			// Inert fault: do not count the round; redraw.
			result.Rounds--
			round--
			retries--
		}
	}
	return result, nil
}

// containsPath reports whether any candidate equals the ground-truth path.
func containsPath(candidates []topo.Path, actual topo.Path) bool {
	for _, c := range candidates {
		if len(c) != len(actual) {
			continue
		}
		same := true
		for i := range c {
			if c[i] != actual[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

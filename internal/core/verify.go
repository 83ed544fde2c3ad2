// Tag verification: Algorithm 3. Look up the report's ⟨inport, outport⟩
// pair, linearly scan its paths for one whose header set admits the
// reported header, and compare tags. Detection has no false positives: a
// correctly forwarded packet always reproduces the table's tag exactly
// (§6.3).

package core

import (
	"fmt"

	"veridp/internal/bdd"
	"veridp/internal/header"
	"veridp/internal/packet"
)

// FailReason classifies a verification failure.
type FailReason uint8

const (
	// FailNone means verification passed.
	FailNone FailReason = iota
	// FailNoPair means no path exists for the ⟨inport, outport⟩ pair: the
	// packet exited somewhere it never should have (Algorithm 3 line 7).
	FailNoPair
	// FailNoHeaderMatch means paths exist for the pair but none admits the
	// reported header.
	FailNoHeaderMatch
	// FailTagMismatch means the header matched a path but the tag differs:
	// the packet took a different route than the control plane intended.
	FailTagMismatch
)

// String names the reason.
func (r FailReason) String() string {
	switch r {
	case FailNone:
		return "ok"
	case FailNoPair:
		return "no-path-for-port-pair"
	case FailNoHeaderMatch:
		return "no-header-match"
	case FailTagMismatch:
		return "tag-mismatch"
	default:
		return fmt.Sprintf("FailReason(%d)", uint8(r))
	}
}

// Verdict is the outcome of verifying one tag report.
type Verdict struct {
	OK     bool
	Reason FailReason
	// Matched is the entry whose header set admitted the packet (set for
	// FailNone and FailTagMismatch).
	Matched *PathEntry
}

// Verify implements Algorithm 3 on one tag report against the writer's
// table. It must not run concurrently with an update; a Handle's Snapshot
// offers the same verdicts lock-free.
//
//lint:allocfree
func (pt *PathTable) Verify(r *packet.Report) Verdict {
	return verify(pt.Space, pt.Space.T.View(), pt.Lookup(r.Inport, r.Outport), r)
}

// verify is Algorithm 3's scan over one pair's paths — the module's only
// copy. view must span every Headers ref in paths.
//
//lint:allocfree
func verify(space *header.Space, view bdd.View, paths []*PathEntry, r *packet.Report) Verdict {
	if len(paths) == 0 {
		return Verdict{Reason: FailNoPair}
	}
	// Header sets of one pair are disjoint by construction, so at most one
	// entry admits the header; scan them all anyway and prefer a tag match,
	// which keeps verification sound if incremental merges ever overlap.
	var matched *PathEntry
	for _, e := range paths {
		if !space.ContainsView(view, e.Headers, r.Header) {
			continue
		}
		if e.Tag == r.Tag {
			return Verdict{OK: true, Reason: FailNone, Matched: e}
		}
		if matched == nil {
			matched = e
		}
	}
	if matched != nil {
		return Verdict{Reason: FailTagMismatch, Matched: matched}
	}
	return Verdict{Reason: FailNoHeaderMatch}
}

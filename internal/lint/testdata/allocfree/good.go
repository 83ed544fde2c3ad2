// Known-good corpus for the allocfree checker: in-place decodes, cold
// error branches that allocate, annotated callees, spread variadics,
// pointer-shaped interface arguments, map reads, and a map write on a
// cold branch.

package allocfree

import "fmt"

type item struct {
	a, b byte
}

// decodeInto is the UnmarshalReportInto shape: early error returns may
// allocate (fmt.Errorf is on the cold path), the fall-through decode is
// a value struct literal written in place.
//
//lint:allocfree
func decodeInto(b []byte, it *item) error {
	if len(b) < 2 {
		return fmt.Errorf("allocfree corpus: short buffer (%d bytes)", len(b))
	}
	*it = item{a: b[0], b: b[1]}
	return nil
}

// process calls an annotated callee: the callee is checked under its own
// directive, not re-flagged at the call site.
//
//lint:allocfree
func process(b []byte, it *item) bool {
	if err := decodeInto(b, it); err != nil {
		return false
	}
	return it.a == 1
}

// sum is not annotated but is allocation-free, so annotated callers may
// use it.
func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

//lint:allocfree
func tally(xs []int) int {
	return sum(xs)
}

// lookupWalk is the BDD-membership shape: index chasing with a cold
// panic guard.
//
//lint:allocfree
func lookupWalk(nodes []uint32, start int) uint32 {
	i := start
	for nodes[i] != 0 {
		if i >= len(nodes) {
			panic("allocfree corpus: walk escaped the arena")
		}
		i = int(nodes[i])
	}
	return nodes[i]
}

// relay spreads its variadic through: the caller's slice is passed as
// is, nothing is materialized.
//
//lint:allocfree
func relay(sink func(...int), vals ...int) {
	sink(vals...)
}

// pointerBox passes a pointer where an interface is expected — a single
// word, no box.
//
//lint:allocfree
func pointerBox(sink func(any), it *item) {
	sink(it)
}

// lookup only reads a map; reads never grow one.
//
//lint:allocfree
func lookup(counts map[byte]uint64, it *item) uint64 {
	return counts[it.a]
}

// countMiss writes a map only on its cold branch, which the contract
// exempts like any error path.
//
//lint:allocfree
func countMiss(misses map[byte]uint64, it *item) bool {
	if it.a == 0 {
		misses[it.b]++
		return false
	}
	return true
}

// Checker lockorder: cycles in the global mutex acquisition-order graph.
// An edge A→B means some goroutine acquires B while holding A — directly
// in one function body, or through a call chain (call under A reaching a
// Lock of B). Two goroutines traversing a cycle in opposite directions
// deadlock; the diagnostic spells out the full acquisition chain, every
// Lock site included, so the report is actionable without re-deriving
// the interprocedural path.
//
// Mutexes are tracked as classes (one node per struct field / package
// var), so distinct instances of one class collapse; same-class
// self-edges are skipped as instance-aliasing noise.

package lint

import (
	"fmt"
	"sort"
	"strings"
)

// LockOrder reports potential deadlocks as lock-order cycles.
var LockOrder = &Analyzer{
	Name:   "lockorder",
	Doc:    "mutexes must be acquired in one global order; acquisition-order cycles are potential deadlocks",
	Global: true,
	Run:    runLockOrder,
}

func runLockOrder(pass *Pass) {
	prog := pass.Prog
	acq := prog.mayAcquire()

	// One representative edge per (from, to) pair, earliest nested
	// acquisition wins so reports are deterministic.
	edges := make(map[lockKey]map[lockKey]orderEdge)
	addEdge := func(e orderEdge) {
		if e.from == e.to {
			return
		}
		if edges[e.from] == nil {
			edges[e.from] = make(map[lockKey]orderEdge)
		}
		if old, ok := edges[e.from][e.to]; !ok || e.toPos < old.toPos {
			edges[e.from][e.to] = e
		}
	}
	for _, n := range prog.nodes {
		for _, e := range n.Sum.edges {
			addEdge(e)
		}
		for _, cs := range n.Sum.calls {
			if cs.spawned || len(cs.held) == 0 {
				continue
			}
			for _, callee := range cs.callees {
				for k, info := range acq[callee] {
					via := viaChain(callee.Name, info.via)
					for _, h := range cs.held {
						addEdge(orderEdge{
							from: h.key, to: k,
							fromPos: h.pos, toPos: cs.pos,
							via: via + fmt.Sprintf(" (locked at %s)", prog.shortPos(info.at)),
						})
					}
				}
			}
		}
	}

	for _, cycle := range findCycles(edges) {
		var steps []string
		for _, e := range cycle {
			step := fmt.Sprintf("%s (held since %s) then %s at %s",
				e.from.display(), prog.shortPos(e.fromPos),
				e.to.display(), prog.shortPos(e.toPos))
			if e.via != "" {
				step += " via " + e.via
			}
			steps = append(steps, step)
		}
		pass.Reportf(cycle[0].toPos,
			"lock order cycle (potential deadlock): %s", strings.Join(steps, "; "))
	}
}

// findCycles enumerates elementary cycles in the edge graph (bounded at
// length 6 — lock chains deeper than that do not occur in practice) and
// returns each once, rotated to start at its smallest key and sorted by
// position for deterministic output.
func findCycles(edges map[lockKey]map[lockKey]orderEdge) [][]orderEdge {
	var keys []lockKey
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	seen := make(map[string]bool)
	var cycles [][]orderEdge

	const maxLen = 6
	var path []orderEdge
	var dfs func(start, cur lockKey)
	dfs = func(start, cur lockKey) {
		if len(path) >= maxLen {
			return
		}
		var nexts []lockKey
		for next := range edges[cur] {
			nexts = append(nexts, next)
		}
		sort.Slice(nexts, func(i, j int) bool { return nexts[i] < nexts[j] })
		for _, next := range nexts {
			e := edges[cur][next]
			if next == start {
				cycle := append(append([]orderEdge(nil), path...), e)
				if sig := cycleSignature(cycle); !seen[sig] {
					seen[sig] = true
					cycles = append(cycles, canonicalCycle(cycle))
				}
				continue
			}
			// Only simple cycles: no revisiting intermediate nodes, and
			// only descend to keys >= start so each cycle is found from
			// its smallest member exactly once.
			if next < start || onPath(path, next) {
				continue
			}
			path = append(path, e)
			dfs(start, next)
			path = path[:len(path)-1]
		}
	}
	for _, k := range keys {
		dfs(k, k)
	}

	sort.Slice(cycles, func(i, j int) bool { return cycles[i][0].toPos < cycles[j][0].toPos })
	return cycles
}

func onPath(path []orderEdge, k lockKey) bool {
	for _, e := range path {
		if e.to == k {
			return true
		}
	}
	return false
}

// cycleSignature is the rotation-independent identity of a cycle.
func cycleSignature(cycle []orderEdge) string {
	keys := make([]string, len(cycle))
	for i, e := range cycle {
		keys[i] = string(e.from)
	}
	sort.Strings(keys)
	return strings.Join(keys, "→")
}

// canonicalCycle rotates the cycle so the edge with the earliest nested
// acquisition comes first; the diagnostic is anchored there.
func canonicalCycle(cycle []orderEdge) []orderEdge {
	best := 0
	for i, e := range cycle {
		if e.toPos < cycle[best].toPos {
			best = i
		}
	}
	return append(append([]orderEdge(nil), cycle[best:]...), cycle[:best]...)
}

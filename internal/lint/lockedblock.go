// Checker lockedblock: blocking operations reached while a mutex is
// held. A channel send/receive, select, time.Sleep, WaitGroup.Wait, or
// network I/O performed under a lock couples the lock's hold time to an
// unbounded external event — a stalled peer wedges every other path
// through that mutex. In the VeriDP monitor that failure is
// indistinguishable from the data-plane fault the monitor exists to
// detect, which is why this invariant gets its own checker.
//
// Direct violations are reported at the operation; interprocedural ones
// at the call site that was made under the lock, with the root blocking
// operation chained in the message. Calls through interfaces fan out to
// every loaded implementation (conservative dispatch).

package lint

import "strings"

// LockedBlock reports blocking operations performed while holding a mutex.
var LockedBlock = &Analyzer{
	Name:   "lockedblock",
	Doc:    "no channel, timer, WaitGroup, or network blocking operation while a mutex is held",
	Global: true,
	Run:    runLockedBlock,
}

func runLockedBlock(pass *Pass) {
	prog := pass.Prog
	blocks := prog.mayBlock()
	for _, n := range prog.nodes {
		for _, b := range n.Sum.blocks {
			if len(b.held) == 0 {
				continue
			}
			pass.Reportf(b.pos, "%s while holding %s", b.what, heldKeys(b.held))
		}
		reported := make(map[int]bool) // one report per call position offset
		for _, cs := range n.Sum.calls {
			if cs.spawned || len(cs.held) == 0 || reported[int(cs.pos)] {
				continue
			}
			for _, callee := range cs.callees {
				info := blocks[callee]
				if info == nil {
					continue
				}
				chain := viaChain(callee.Name, info.via)
				if !strings.HasSuffix(chain, info.at.what) {
					chain += " → " + info.at.what
				}
				pass.Reportf(cs.pos,
					"call to %s may block (%s at %s) while holding %s",
					cs.name, chain, prog.shortPos(info.at.pos), heldKeys(cs.held))
				reported[int(cs.pos)] = true
				break
			}
		}
	}
}

package flowtable

import (
	"math/rand"
	"testing"

	"veridp/internal/bdd"
	"veridp/internal/header"
	"veridp/internal/topo"
)

// folded drives a PrefixTree the way the path table does: it folds every
// returned Delta into per-port header sets, starting from "everything
// drops", and answers longest-prefix match over the live rules — the
// reference semantics the folded sets must agree with.
type folded struct {
	s      *header.Space
	tree   *PrefixTree
	preds  map[topo.PortID]bdd.Ref
	rules  map[uint64]liveRule
	nextID uint64
}

type liveRule struct {
	pfx  Prefix
	port topo.PortID
}

func newFolded(s *header.Space, ports []topo.PortID) *folded {
	return &folded{
		s:      s,
		tree:   NewPrefixTree(s, ports),
		preds:  map[topo.PortID]bdd.Ref{topo.DropPort: bdd.True},
		rules:  make(map[uint64]liveRule),
		nextID: 1,
	}
}

func (f *folded) fold(d Delta) {
	f.preds[d.From] = f.s.T.Diff(f.preds[d.From], d.Set)
	f.preds[d.To] = f.s.T.Or(f.preds[d.To], d.Set)
}

// insert adds a rule under the next fresh ID.
func (f *folded) insert(p Prefix, port topo.PortID) (uint64, Delta, error) {
	id := f.nextID
	d, err := f.add(id, p, port)
	if err != nil {
		return 0, d, err
	}
	f.nextID++
	return id, d, nil
}

// add adds a rule under the caller's ID.
func (f *folded) add(id uint64, p Prefix, port topo.PortID) (Delta, error) {
	d, err := f.tree.Insert(id, p, port)
	if err != nil {
		return d, err
	}
	f.rules[id] = liveRule{p.Canonical(), port}
	f.fold(d)
	return d, nil
}

func (f *folded) remove(id uint64) (Delta, error) {
	d, err := f.tree.Remove(id)
	if err != nil {
		return d, err
	}
	delete(f.rules, id)
	f.fold(d)
	return d, nil
}

// pred returns the folded P_y (False for ports no delta touched).
func (f *folded) pred(y topo.PortID) bdd.Ref { return f.preds[y] }

// lookup returns the port longest-prefix matching dst among the live rules.
func (f *folded) lookup(dst uint32) topo.PortID {
	best, out := -1, topo.DropPort
	for _, r := range f.rules {
		if r.pfx.Matches(dst) && r.pfx.Len > best {
			best, out = r.pfx.Len, r.port
		}
	}
	return out
}

// table returns the equivalent priority table: priority = prefix length.
func (f *folded) table(ports []topo.PortID) *SwitchConfig {
	cfg := NewSwitchConfig(ports)
	for _, r := range f.rules {
		rule := &Rule{Priority: uint16(r.pfx.Len), Match: Match{DstPrefix: r.pfx}, Action: ActOutput, OutPort: r.port}
		if r.port == topo.DropPort {
			rule.Action, rule.OutPort = ActDrop, 0
		}
		cfg.Table.Add(rule)
	}
	return cfg
}

// agreesWithScratch reports the first port whose folded set differs from
// the transfer guard of the equivalent priority table, ok when none does.
func (f *folded) agreesWithScratch(ports []topo.PortID) (topo.PortID, bool) {
	scratch := transferGuards(f.s, f.table(ports))
	for _, p := range append([]topo.PortID{topo.DropPort}, ports...) {
		if f.pred(p) != scratch[PortPair{ports[0], p}] {
			return p, false
		}
	}
	return 0, true
}

func TestPrefixTreeEmpty(t *testing.T) {
	s := header.NewSpace()
	pt := newFolded(s, []topo.PortID{1, 2})
	if _, err := pt.tree.Remove(1); err == nil {
		t.Fatal("fresh tree not empty")
	}
	if pt.pred(topo.DropPort) != bdd.True {
		t.Fatal("empty tree should drop everything")
	}
	if pt.pred(1) != bdd.False || pt.pred(99) != bdd.False {
		t.Fatal("empty tree has nonempty port predicates")
	}
	if pt.lookup(ip("1.2.3.4")) != topo.DropPort {
		t.Fatal("empty tree should LPM to ⊥")
	}
}

func TestPrefixTreeInsertDelta(t *testing.T) {
	s := header.NewSpace()
	pt := newFolded(s, []topo.PortID{1, 2})
	_, d, err := pt.insert(Prefix{ip("10.0.0.0"), 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.From != topo.DropPort || d.To != 1 {
		t.Fatalf("delta ports = %s→%s, want ⊥→1", d.From, d.To)
	}
	if d.Set != s.DstIPPrefix(ip("10.0.0.0"), 8) {
		t.Fatal("delta set should be the whole /8 (no children yet)")
	}
	// Nested rule: delta carves out of the /8.
	_, d2, err := pt.insert(Prefix{ip("10.1.0.0"), 16}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d2.From != 1 || d2.To != 2 {
		t.Fatalf("nested delta ports = %s→%s, want 1→2", d2.From, d2.To)
	}
	if d2.Set != s.DstIPPrefix(ip("10.1.0.0"), 16) {
		t.Fatal("nested delta should be the /16")
	}
	// Port predicate for 1 excludes the /16 now.
	if s.Contains(pt.pred(1), header.Header{DstIP: ip("10.1.2.3")}) {
		t.Fatal("parent predicate still contains the nested /16")
	}
	if !s.Contains(pt.pred(2), header.Header{DstIP: ip("10.1.2.3")}) {
		t.Fatal("child predicate missing its /16")
	}
}

func TestPrefixTreeReparenting(t *testing.T) {
	s := header.NewSpace()
	pt := newFolded(s, []topo.PortID{1, 2, 3})
	// Insert the /24 first, then a covering /16: the /24 must be
	// re-parented under the /16 and the /16's match must exclude it.
	pt.insert(Prefix{ip("10.1.1.0"), 24}, 1)
	_, d, err := pt.insert(Prefix{ip("10.1.0.0"), 16}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := s.T.Diff(s.DstIPPrefix(ip("10.1.0.0"), 16), s.DstIPPrefix(ip("10.1.1.0"), 24))
	if d.Set != want {
		t.Fatal("covering rule's delta should exclude the pre-existing /24")
	}
	if !s.Contains(pt.pred(1), header.Header{DstIP: ip("10.1.1.7")}) {
		t.Fatal("/24 no longer wins LPM after re-parenting")
	}
	if !s.Contains(pt.pred(2), header.Header{DstIP: ip("10.1.2.7")}) {
		t.Fatal("/16 should win outside the /24")
	}
}

func TestPrefixTreeRemove(t *testing.T) {
	s := header.NewSpace()
	pt := newFolded(s, []topo.PortID{1, 2})
	id8, _, _ := pt.insert(Prefix{ip("10.0.0.0"), 8}, 1)
	id16, _, _ := pt.insert(Prefix{ip("10.1.0.0"), 16}, 2)

	// Removing the /16 reverts its space to the /8.
	d, err := pt.remove(id16)
	if err != nil {
		t.Fatal(err)
	}
	if d.From != 2 || d.To != 1 {
		t.Fatalf("remove delta = %s→%s, want 2→1", d.From, d.To)
	}
	if !s.Contains(pt.pred(1), header.Header{DstIP: ip("10.1.2.3")}) {
		t.Fatal("space did not revert to parent")
	}
	// Removing the /8 reverts to drop.
	if _, err := pt.remove(id8); err != nil {
		t.Fatal(err)
	}
	if pt.pred(topo.DropPort) != bdd.True {
		t.Fatal("tree did not return to drop-everything")
	}
	if _, err := pt.remove(id8); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestPrefixTreeRemoveMiddleKeepsGrandchildren(t *testing.T) {
	s := header.NewSpace()
	pt := newFolded(s, []topo.PortID{1, 2, 3})
	pt.insert(Prefix{ip("10.0.0.0"), 8}, 1)
	id16, _, _ := pt.insert(Prefix{ip("10.1.0.0"), 16}, 2)
	pt.insert(Prefix{ip("10.1.1.0"), 24}, 3)

	pt.remove(id16)
	if !s.Contains(pt.pred(3), header.Header{DstIP: ip("10.1.1.9")}) {
		t.Fatal("grandchild lost after middle removal")
	}
	if !s.Contains(pt.pred(1), header.Header{DstIP: ip("10.1.2.9")}) {
		t.Fatal("middle space did not revert to grandparent")
	}
}

func TestPrefixTreeErrors(t *testing.T) {
	s := header.NewSpace()
	pt := NewPrefixTree(s, []topo.PortID{1})
	if _, err := pt.Insert(1, Prefix{ip("10.0.0.0"), 8}, 9); err == nil {
		t.Fatal("unknown port accepted")
	}
	if _, err := pt.Insert(1, Prefix{0, 0}, 1); err == nil {
		t.Fatal("default route over virtual root accepted")
	}
	pt.Insert(1, Prefix{ip("10.0.0.0"), 8}, 1)
	if _, err := pt.Insert(2, Prefix{ip("10.0.0.0"), 8}, 1); err == nil {
		t.Fatal("duplicate prefix accepted")
	}
	if _, err := pt.Insert(1, Prefix{ip("10.1.0.0"), 16}, 1); err == nil {
		t.Fatal("duplicate rule ID accepted")
	}
}

// TestPrefixTreeMatchesIncrementalVsScratch: after a random add/remove
// workload, the folded deltas equal the transfer guards computed from
// scratch on an equivalent priority table — the §4.4 correctness claim.
func TestPrefixTreeMatchesIncrementalVsScratch(t *testing.T) {
	s := header.NewSpace()
	ports := []topo.PortID{1, 2, 3, 4}
	pt := newFolded(s, ports)
	rng := rand.New(rand.NewSource(7))

	var ids []uint64
	for step := 0; step < 300; step++ {
		if len(ids) == 0 || rng.Intn(3) != 0 {
			pfx := Prefix{rng.Uint32(), 8 + rng.Intn(17)}.Canonical()
			port := ports[rng.Intn(len(ports))]
			id, _, err := pt.insert(pfx, port)
			if err != nil {
				continue // duplicate prefix; skip
			}
			ids = append(ids, id)
		} else {
			i := rng.Intn(len(ids))
			if _, err := pt.remove(ids[i]); err != nil {
				t.Fatal(err)
			}
			ids = append(ids[:i], ids[i+1:]...)
		}
	}
	if p, ok := pt.agreesWithScratch(ports); !ok {
		t.Fatalf("incremental predicate for port %s diverged from scratch recomputation", p)
	}
}

// TestPrefixTreeLPMAgreesWithPredicates: longest-prefix match and the
// folded deltas give the same answer for random addresses.
func TestPrefixTreeLPMAgreesWithPredicates(t *testing.T) {
	s := header.NewSpace()
	ports := []topo.PortID{1, 2, 3}
	pt := newFolded(s, ports)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 100; i++ {
		pfx := Prefix{rng.Uint32() & 0x0fffffff, 4 + rng.Intn(25)}.Canonical()
		pt.insert(pfx, ports[rng.Intn(len(ports))])
	}
	for trial := 0; trial < 1000; trial++ {
		dst := rng.Uint32() & 0x1fffffff
		want := pt.lookup(dst)
		hits := 0
		var got topo.PortID
		for _, p := range append([]topo.PortID{topo.DropPort}, ports...) {
			if s.Contains(pt.pred(p), header.Header{DstIP: dst}) {
				hits++
				got = p
			}
		}
		if hits != 1 || got != want {
			t.Fatalf("dst %s: LPM says %s, predicates say %s (hits=%d)",
				header.IPString(dst), want, got, hits)
		}
	}
}

// FuzzPrefixTreeDeltas decodes bytes into an add/remove sequence over
// caller-chosen rule IDs. Every add or remove must succeed exactly when
// the model says it should (duplicate IDs, duplicate prefixes and unknown
// ports are rejected), and after each step the folded deltas must equal
// the transfer guards of the equivalent priority table.
//
// Each step is four bytes: op (low bit: add/remove), rule ID, and two
// bytes for the prefix (top octets, length) and the output port.
func FuzzPrefixTreeDeltas(f *testing.F) {
	f.Add([]byte{0, 1, 10, 0x00, 0, 2, 10, 0x0b, 1, 1, 0, 0})
	f.Add([]byte{0, 1, 10, 0x00, 0, 1, 11, 0x08, 0, 2, 10, 0x00, 0, 3, 10, 0x20})
	ports := []topo.PortID{1, 2, 3}
	outs := []topo.PortID{1, 2, 3, topo.DropPort, 9} // 9: not a port of the switch
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*64 {
			data = data[:4*64]
		}
		s := header.NewSpace()
		pt := newFolded(s, ports)
		for ; len(data) >= 4; data = data[4:] {
			op, id, hi, lp := data[0], uint64(data[1]), data[2], data[3]
			_, had := pt.rules[id]
			if op&1 == 1 {
				if _, err := pt.remove(id); had != (err == nil) {
					t.Fatalf("remove %d: err %v, rule live %v", id, err, had)
				}
			} else {
				pfx := Prefix{IP: uint32(hi)<<24 | uint32(lp)<<16, Len: 4 + int(lp&7)*2}.Canonical()
				out := outs[int(lp>>3)%len(outs)]
				dupPrefix := false
				for _, r := range pt.rules {
					dupPrefix = dupPrefix || r.pfx.Equal(pfx)
				}
				_, err := pt.add(id, pfx, out)
				if wantErr := had || dupPrefix || out == 9; wantErr != (err != nil) {
					t.Fatalf("insert %d %s→%s: err %v, want error %v", id, pfx, out, err, wantErr)
				}
			}
			if p, ok := pt.agreesWithScratch(ports); !ok {
				t.Fatalf("folded deltas for port %s diverge from the priority table", p)
			}
		}
	})
}

// Package header models the packet-header space VeriDP verifies over and its
// encoding into BDD variables.
//
// VeriDP identifies flows by the TCP/UDP 5-tuple (§5). We therefore lay the
// header space out as 104 Boolean variables:
//
//	vars   0..31   source IPv4 address   (MSB first)
//	vars  32..63   destination IPv4 address
//	vars  64..71   IP protocol
//	vars  72..87   source transport port
//	vars  88..103  destination transport port
//
// MSB-first ordering within each field keeps prefix predicates shallow: an
// IPv4 /24 prefix over the destination address is a 24-node chain. Fields are
// ordered source-to-destination because forwarding rules overwhelmingly match
// destination prefixes; interleaving buys nothing for this workload.
//
// The package also provides a wildcard-expression representation (Wildcard,
// WildcardSet) used only as the measurable baseline for the §4.1 argument
// that wildcards are too inefficient for arbitrary header sets.
package header

import (
	"fmt"

	"veridp/internal/bdd"
)

// Field bit offsets within the 104-variable header space.
const (
	SrcIPOffset   = 0
	SrcIPBits     = 32
	DstIPOffset   = 32
	DstIPBits     = 32
	ProtoOffset   = 64
	ProtoBits     = 8
	SrcPortOffset = 72
	SrcPortBits   = 16
	DstPortOffset = 88
	DstPortBits   = 16

	// NumVars is the total width of the header space in Boolean variables.
	NumVars = 104
)

// Well-known IP protocol numbers used throughout the examples and tests.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// Header is a concrete 5-tuple: the portion of a packet VeriDP reports to the
// verification server (§3.3, "header is a portion of packet header, e.g.,
// TCP 5-tuple").
type Header struct {
	SrcIP   uint32
	DstIP   uint32
	Proto   uint8
	SrcPort uint16
	DstPort uint16
}

// String renders the header in the conventional 5-tuple form.
func (h Header) String() string {
	return fmt.Sprintf("%s:%d > %s:%d proto %d",
		IPString(h.SrcIP), h.SrcPort, IPString(h.DstIP), h.DstPort, h.Proto)
}

// IPString formats a uint32 IPv4 address in dotted-quad notation.
func IPString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// MustParseIP converts dotted-quad notation to a uint32, panicking on
// malformed input. It is intended for literals in examples and tests.
func MustParseIP(s string) uint32 {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// ParseIP converts dotted-quad notation to a uint32 IPv4 address.
func ParseIP(s string) (uint32, error) {
	var a, b, c, d int
	n, err := fmt.Sscanf(s, "%d.%d.%d.%d", &a, &b, &c, &d)
	if err != nil || n != 4 {
		return 0, fmt.Errorf("header: malformed IPv4 address %q", s)
	}
	for _, v := range []int{a, b, c, d} {
		if v < 0 || v > 255 {
			return 0, fmt.Errorf("header: IPv4 octet out of range in %q", s)
		}
	}
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d), nil
}

// Space wraps a bdd.Table laid out for the 104-bit header space and provides
// field-level predicate constructors. All VeriDP components that manipulate
// header sets share one Space.
type Space struct {
	T *bdd.Table

	// fields remembers every field predicate built so far: the few
	// thousand prefixes and values of rules and ACLs, asked for again at
	// every scan of a switch's rules. Like T, it has one writer at a time.
	fields map[fieldKey]bdd.Ref
}

// fieldKey names a field predicate: the field's offset, the prefix length
// and the prefix bits.
type fieldKey struct {
	offset, plen int
	value        uint32
}

// NewSpace allocates a fresh header space backed by a new BDD table.
func NewSpace() *Space {
	return &Space{T: bdd.New(NumVars), fields: make(map[fieldKey]bdd.Ref)}
}

// All returns the all-match header set (the BDD True).
func (s *Space) All() bdd.Ref { return bdd.True }

// fieldEq builds the predicate "field == value" for a field of width bits
// starting at offset.
func (s *Space) fieldEq(offset, bits int, value uint32) bdd.Ref {
	return s.fieldPrefix(offset, bits, value, bits)
}

// fieldPrefix builds the predicate "top plen bits of field == top plen bits
// of value". Fields are at most 32 bits wide, so the literals fit arrays on
// the stack.
func (s *Space) fieldPrefix(offset, bits int, value uint32, plen int) bdd.Ref {
	if plen < 0 || plen > bits {
		panic(fmt.Sprintf("header: prefix length %d out of range [0,%d]", plen, bits))
	}
	k := fieldKey{offset, plen, value >> (bits - plen) << (bits - plen)}
	if r, ok := s.fields[k]; ok {
		return r
	}
	var vars [32]int
	var values [32]bool
	for i := 0; i < plen; i++ {
		vars[i] = offset + i
		values[i] = value>>(bits-1-i)&1 == 1
	}
	r := s.T.Cube(vars[:plen], values[:plen])
	if s.fields == nil {
		s.fields = make(map[fieldKey]bdd.Ref)
	}
	s.fields[k] = r
	return r
}

// SrcIPPrefix returns the predicate src_ip ∈ prefix/plen.
func (s *Space) SrcIPPrefix(prefix uint32, plen int) bdd.Ref {
	return s.fieldPrefix(SrcIPOffset, SrcIPBits, prefix, plen)
}

// DstIPPrefix returns the predicate dst_ip ∈ prefix/plen.
func (s *Space) DstIPPrefix(prefix uint32, plen int) bdd.Ref {
	return s.fieldPrefix(DstIPOffset, DstIPBits, prefix, plen)
}

// SrcIPEq returns the predicate src_ip == ip.
func (s *Space) SrcIPEq(ip uint32) bdd.Ref { return s.fieldEq(SrcIPOffset, SrcIPBits, ip) }

// DstIPEq returns the predicate dst_ip == ip.
func (s *Space) DstIPEq(ip uint32) bdd.Ref { return s.fieldEq(DstIPOffset, DstIPBits, ip) }

// ProtoEq returns the predicate proto == p.
func (s *Space) ProtoEq(p uint8) bdd.Ref { return s.fieldEq(ProtoOffset, ProtoBits, uint32(p)) }

// SrcPortEq returns the predicate src_port == p.
func (s *Space) SrcPortEq(p uint16) bdd.Ref { return s.fieldEq(SrcPortOffset, SrcPortBits, uint32(p)) }

// DstPortEq returns the predicate dst_port == p.
func (s *Space) DstPortEq(p uint16) bdd.Ref { return s.fieldEq(DstPortOffset, DstPortBits, uint32(p)) }

// HeaderSet returns the singleton predicate for a concrete 5-tuple. The
// verification server uses this to test header ∈ path.headers (§5: "generate
// a BDD representation for the packet header, and then intersect").
func (s *Space) HeaderSet(h Header) bdd.Ref {
	vars := make([]int, 0, NumVars)
	values := make([]bool, 0, NumVars)
	appendField := func(offset, bits int, value uint32) {
		for i := 0; i < bits; i++ {
			vars = append(vars, offset+i)
			values = append(values, value>>(bits-1-i)&1 == 1)
		}
	}
	appendField(SrcIPOffset, SrcIPBits, h.SrcIP)
	appendField(DstIPOffset, DstIPBits, h.DstIP)
	appendField(ProtoOffset, ProtoBits, uint32(h.Proto))
	appendField(SrcPortOffset, SrcPortBits, uint32(h.SrcPort))
	appendField(DstPortOffset, DstPortBits, uint32(h.DstPort))
	return s.T.Cube(vars, values)
}

// Contains reports whether the concrete header h belongs to the header set.
// It evaluates the BDD directly rather than building the singleton cube and
// keeps the assignment on the stack, so the per-report verification path is
// allocation-free (Figure 13 is a microseconds-per-report budget).
//
//lint:allocfree
func (s *Space) Contains(set bdd.Ref, h Header) bool {
	return s.ContainsView(s.T.View(), set, h)
}

// ContainsView is Contains evaluated against an immutable BDD view instead
// of the live table — the lock-free verification path: many goroutines may
// call it concurrently while a writer keeps extending the underlying table
// (the view's refs stay valid because the node array is append-only).
//
//lint:allocfree
func (s *Space) ContainsView(v bdd.View, set bdd.Ref, h Header) bool {
	var a [NumVars]byte
	fillAssignment(&a, h)
	return v.Eval(set, a[:])
}

// assignment expands a concrete header into a full 104-variable assignment
// (heap-allocating; hot paths use fillAssignment with a stack array).
func (s *Space) assignment(h Header) []byte {
	var a [NumVars]byte
	fillAssignment(&a, h)
	return a[:]
}

// fillAssignment writes h's bits into a caller-provided array.
//
//lint:allocfree
func fillAssignment(a *[NumVars]byte, h Header) {
	fillField(a, SrcIPOffset, SrcIPBits, h.SrcIP)
	fillField(a, DstIPOffset, DstIPBits, h.DstIP)
	fillField(a, ProtoOffset, ProtoBits, uint32(h.Proto))
	fillField(a, SrcPortOffset, SrcPortBits, uint32(h.SrcPort))
	fillField(a, DstPortOffset, DstPortBits, uint32(h.DstPort))
}

// fillField writes one field's big-endian bits into the assignment array.
//
//lint:allocfree
func fillField(a *[NumVars]byte, offset, bits int, value uint32) {
	for i := 0; i < bits; i++ {
		a[offset+i] = byte(value >> (bits - 1 - i) & 1)
	}
}

// Witness extracts one concrete header from a non-empty header set,
// defaulting unconstrained bits to zero except the protocol, which defaults
// to TCP so that synthesized witness packets carry a parseable transport
// header. It returns ok=false iff the set is empty. Traffic generation uses
// this to build one test packet per path (§6.4).
func (s *Space) Witness(set bdd.Ref) (Header, bool) {
	a, ok := s.T.AnySat(set)
	if !ok {
		return Header{}, false
	}
	read := func(offset, bits int, dflt uint32) uint32 {
		var v uint32
		allFree := true
		for i := 0; i < bits; i++ {
			bit := a[offset+i]
			if bit != bdd.DontCare {
				allFree = false
			}
			v <<= 1
			if bit == 1 {
				v |= 1
			}
		}
		if allFree {
			return dflt
		}
		return v
	}
	h := Header{
		SrcIP:   read(SrcIPOffset, SrcIPBits, 0),
		DstIP:   read(DstIPOffset, DstIPBits, 0),
		Proto:   uint8(read(ProtoOffset, ProtoBits, ProtoTCP)),
		SrcPort: uint16(read(SrcPortOffset, SrcPortBits, 0)),
		DstPort: uint16(read(DstPortOffset, DstPortBits, 0)),
	}
	return h, true
}

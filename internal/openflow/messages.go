// Package openflow implements the southbound channel between the controller
// and switches: a compact OpenFlow-style binary protocol (Hello, Echo,
// FlowMod, Barrier, PacketOut, Error) over length-framed TCP, plus the
// interception proxy the VeriDP server uses to observe "the bidirectional
// OpenFlow messages exchanged between the controller and switches" (§3.2)
// and keep its path table synchronized with rule installs.
//
// The protocol is deliberately OpenFlow-shaped rather than OpenFlow-exact:
// the paper's system needs FlowMod semantics (add/modify/delete with
// priority and match), Barrier ordering, and message interception — not the
// full 1.5 feature surface. See DESIGN.md, "Substitutions".
package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"

	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/topo"
)

// Version is the protocol version carried in every frame header.
const Version = 0x56 // 'V'

// MsgType enumerates the message kinds.
type MsgType uint8

const (
	TypeHello MsgType = iota + 1
	TypeEchoRequest
	TypeEchoReply
	TypeFlowMod
	TypeBarrierRequest
	TypeBarrierReply
	TypePacketOut
	TypeError
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "Hello"
	case TypeEchoRequest:
		return "EchoRequest"
	case TypeEchoReply:
		return "EchoReply"
	case TypeFlowMod:
		return "FlowMod"
	case TypeBarrierRequest:
		return "BarrierRequest"
	case TypeBarrierReply:
		return "BarrierReply"
	case TypePacketOut:
		return "PacketOut"
	case TypeError:
		return "Error"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// headerLen is the fixed frame header: version, type, length, xid.
const headerLen = 8

// maxBody is the largest body the header's 16-bit length field can frame:
// send refuses anything larger rather than wrap the length, and a frame
// that claims more is rejected on receive. A table dump fits it up to
// ~1 489 rules of 44 wire bytes each.
const maxBody = 0xFFFF - headerLen

// Message is one southbound frame.
type Message struct {
	Type MsgType
	Xid  uint32
	Body []byte
}

// FlowModCommand selects the FlowMod operation.
type FlowModCommand uint8

const (
	FlowAdd FlowModCommand = iota + 1
	FlowModify
	FlowDelete
)

// String names the command.
func (c FlowModCommand) String() string {
	switch c {
	case FlowAdd:
		return "add"
	case FlowModify:
		return "modify"
	case FlowDelete:
		return "delete"
	default:
		return fmt.Sprintf("FlowModCommand(%d)", uint8(c))
	}
}

// FlowMod installs, modifies, or deletes one rule on the switch at the far
// end of the connection. RuleID is controller-assigned so the control
// plane, the switch, and the VeriDP server agree on rule identity.
type FlowMod struct {
	Command FlowModCommand
	Switch  topo.SwitchID // target switch (proxy uses it for demux/logging)
	RuleID  uint64
	Rule    flowtable.Rule // Priority, Match, Action, OutPort (ID ignored)
}

// ApplyFlowMod executes one FlowMod on a flow table. It is the one
// definition of add, modify and delete that switch agents, the in-process
// installer and the verification server's logical tables share, so the
// data plane and the monitor never read a FlowMod two ways. Modify
// replaces the rule's priority, match and whole action set, its rewrite
// included, as an OpenFlow modify replaces the action list. An add must
// carry a RuleID: with 0 the table would pick an ID of its own, and the
// parties would no longer agree on which rule later FlowMods name.
func ApplyFlowMod(t *flowtable.Table, f *FlowMod) error {
	switch f.Command {
	case FlowAdd:
		if f.RuleID == 0 {
			return errors.New("openflow: FlowMod add without a rule ID")
		}
		r := f.Rule
		r.ID = f.RuleID
		_, err := t.Add(&r)
		return err
	case FlowDelete:
		return t.Delete(f.RuleID)
	case FlowModify:
		return t.Modify(f.RuleID, func(r *flowtable.Rule) {
			id := r.ID
			*r = *f.Rule.Clone()
			r.ID = id
		})
	default:
		return fmt.Errorf("openflow: unknown FlowMod command %d", f.Command)
	}
}

// flowModLen is the fixed body size of a FlowMod.
const flowModLen = 1 + 2 + 8 + 2 + matchLen + 1 + 2 + rewriteLen

// matchLen is the serialized size of a flowtable.Match.
const matchLen = 2 + 4 + 1 + 4 + 1 + 1 + 1 + 2 + 2

// rewriteLen is the serialized size of the optional set-field actions:
// flags, src IP, dst IP, src port, dst port.
const rewriteLen = 1 + 4 + 4 + 2 + 2

// marshalRewrite encodes the set-field actions into b (≥ rewriteLen).
func marshalRewrite(rw *header.Rewrite, b []byte) {
	var flags uint8
	if rw != nil {
		if rw.SetSrcIP {
			flags |= 1
		}
		if rw.SetDstIP {
			flags |= 2
		}
		if rw.SetSrcPort {
			flags |= 4
		}
		if rw.SetDstPort {
			flags |= 8
		}
		binary.BigEndian.PutUint32(b[1:5], rw.SrcIP)
		binary.BigEndian.PutUint32(b[5:9], rw.DstIP)
		binary.BigEndian.PutUint16(b[9:11], rw.SrcPort)
		binary.BigEndian.PutUint16(b[11:13], rw.DstPort)
	}
	b[0] = flags
}

// unmarshalRewrite decodes set-field actions (nil when no defined flag is
// set). Value bytes under clear flags are ignored rather than copied, so a
// decoded rewrite always re-marshals to identical bytes.
func unmarshalRewrite(b []byte) (*header.Rewrite, error) {
	if len(b) < rewriteLen {
		return nil, fmt.Errorf("openflow: rewrite truncated (%d bytes, want %d)", len(b), rewriteLen)
	}
	flags := b[0]
	rw := &header.Rewrite{}
	if flags&1 != 0 {
		rw.SetSrcIP, rw.SrcIP = true, binary.BigEndian.Uint32(b[1:5])
	}
	if flags&2 != 0 {
		rw.SetDstIP, rw.DstIP = true, binary.BigEndian.Uint32(b[5:9])
	}
	if flags&4 != 0 {
		rw.SetSrcPort, rw.SrcPort = true, binary.BigEndian.Uint16(b[9:11])
	}
	if flags&8 != 0 {
		rw.SetDstPort, rw.DstPort = true, binary.BigEndian.Uint16(b[11:13])
	}
	if rw.IsZero() {
		return nil, nil
	}
	return rw, nil
}

// marshalMatch encodes a match into b (≥ matchLen bytes).
func marshalMatch(m *flowtable.Match, b []byte) {
	binary.BigEndian.PutUint16(b[0:2], uint16(m.InPort))
	binary.BigEndian.PutUint32(b[2:6], m.SrcPrefix.IP)
	b[6] = uint8(m.SrcPrefix.Len)
	binary.BigEndian.PutUint32(b[7:11], m.DstPrefix.IP)
	b[11] = uint8(m.DstPrefix.Len)
	var flags uint8
	if m.HasProto {
		flags |= 1
	}
	if m.HasSrc {
		flags |= 2
	}
	if m.HasDst {
		flags |= 4
	}
	b[12] = flags
	b[13] = m.Proto
	binary.BigEndian.PutUint16(b[14:16], m.SrcPort)
	binary.BigEndian.PutUint16(b[16:18], m.DstPort)
}

// unmarshalMatch decodes a match from b (≥ matchLen bytes).
func unmarshalMatch(b []byte) (flowtable.Match, error) {
	if len(b) < matchLen {
		return flowtable.Match{}, fmt.Errorf("openflow: match truncated (%d bytes, want %d)", len(b), matchLen)
	}
	m := flowtable.Match{
		InPort:    topo.PortID(binary.BigEndian.Uint16(b[0:2])),
		SrcPrefix: flowtable.Prefix{IP: binary.BigEndian.Uint32(b[2:6]), Len: int(b[6])},
		DstPrefix: flowtable.Prefix{IP: binary.BigEndian.Uint32(b[7:11]), Len: int(b[11])},
		Proto:     b[13],
		SrcPort:   binary.BigEndian.Uint16(b[14:16]),
		DstPort:   binary.BigEndian.Uint16(b[16:18]),
	}
	if m.SrcPrefix.Len > 32 || m.DstPrefix.Len > 32 {
		return m, fmt.Errorf("openflow: prefix length out of range")
	}
	flags := b[12]
	m.HasProto = flags&1 != 0
	m.HasSrc = flags&2 != 0
	m.HasDst = flags&4 != 0
	return m, nil
}

// Marshal encodes the FlowMod as a message body.
func (f *FlowMod) Marshal() []byte {
	b := make([]byte, flowModLen)
	b[0] = uint8(f.Command)
	binary.BigEndian.PutUint16(b[1:3], uint16(f.Switch))
	binary.BigEndian.PutUint64(b[3:11], f.RuleID)
	binary.BigEndian.PutUint16(b[11:13], f.Rule.Priority)
	marshalMatch(&f.Rule.Match, b[13:13+matchLen])
	b[13+matchLen] = uint8(f.Rule.Action)
	binary.BigEndian.PutUint16(b[14+matchLen:16+matchLen], uint16(f.Rule.OutPort))
	marshalRewrite(f.Rule.Rewrite, b[16+matchLen:16+matchLen+rewriteLen])
	return b
}

// UnmarshalFlowMod decodes a FlowMod body.
func UnmarshalFlowMod(b []byte) (*FlowMod, error) {
	if len(b) < flowModLen {
		return nil, fmt.Errorf("openflow: FlowMod truncated (%d bytes)", len(b))
	}
	cmd := FlowModCommand(b[0])
	if cmd < FlowAdd || cmd > FlowDelete {
		return nil, fmt.Errorf("openflow: bad FlowMod command %d", b[0])
	}
	if act := flowtable.Action(b[13+matchLen]); act != flowtable.ActOutput && act != flowtable.ActDrop {
		return nil, fmt.Errorf("openflow: bad FlowMod action %d", b[13+matchLen])
	}
	m, err := unmarshalMatch(b[13 : 13+matchLen])
	if err != nil {
		return nil, err
	}
	rw, err := unmarshalRewrite(b[16+matchLen : 16+matchLen+rewriteLen])
	if err != nil {
		return nil, err
	}
	f := &FlowMod{
		Command: cmd,
		Switch:  topo.SwitchID(binary.BigEndian.Uint16(b[1:3])),
		RuleID:  binary.BigEndian.Uint64(b[3:11]),
		Rule: flowtable.Rule{
			Priority: binary.BigEndian.Uint16(b[11:13]),
			Match:    m,
			Action:   flowtable.Action(b[13+matchLen]),
			OutPort:  topo.PortID(binary.BigEndian.Uint16(b[14+matchLen : 16+matchLen])),
			Rewrite:  rw,
		},
	}
	f.Rule.ID = f.RuleID
	return f, nil
}

// ruleWireLen is one serialized rule in a table dump: ID, priority,
// match, action, out port, rewrite.
const ruleWireLen = 8 + 2 + matchLen + 1 + 2 + rewriteLen

// MarshalTableDump encodes a flow table snapshot as a table dump: a rule
// count, then one fixed-size record per rule. The table cache stores it
// and the §3.1 table audit measures its size; it never crosses the wire.
func MarshalTableDump(rules []*flowtable.Rule) []byte {
	b := make([]byte, 4+len(rules)*ruleWireLen)
	binary.BigEndian.PutUint32(b[0:4], uint32(len(rules)))
	off := 4
	for _, r := range rules {
		binary.BigEndian.PutUint64(b[off:off+8], r.ID)
		binary.BigEndian.PutUint16(b[off+8:off+10], r.Priority)
		marshalMatch(&r.Match, b[off+10:off+10+matchLen])
		b[off+10+matchLen] = uint8(r.Action)
		binary.BigEndian.PutUint16(b[off+11+matchLen:off+13+matchLen], uint16(r.OutPort))
		marshalRewrite(r.Rewrite, b[off+13+matchLen:off+13+matchLen+rewriteLen])
		off += ruleWireLen
	}
	return b
}

// UnmarshalTableDump decodes a table dump.
func UnmarshalTableDump(b []byte) ([]*flowtable.Rule, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("openflow: table dump truncated")
	}
	n := binary.BigEndian.Uint32(b[0:4])
	if uint64(len(b)) < 4+uint64(n)*ruleWireLen {
		return nil, fmt.Errorf("openflow: table dump of %d rules truncated (%d bytes)", n, len(b))
	}
	rules := make([]*flowtable.Rule, 0, n)
	off := 4
	for i := uint32(0); i < n; i++ {
		m, err := unmarshalMatch(b[off+10 : off+10+matchLen])
		if err != nil {
			return nil, err
		}
		rw, err := unmarshalRewrite(b[off+13+matchLen : off+13+matchLen+rewriteLen])
		if err != nil {
			return nil, err
		}
		rules = append(rules, &flowtable.Rule{
			ID:       binary.BigEndian.Uint64(b[off : off+8]),
			Priority: binary.BigEndian.Uint16(b[off+8 : off+10]),
			Match:    m,
			Action:   flowtable.Action(b[off+10+matchLen]),
			OutPort:  topo.PortID(binary.BigEndian.Uint16(b[off+11+matchLen : off+13+matchLen])),
			Rewrite:  rw,
		})
		off += ruleWireLen
	}
	return rules, nil
}

// PacketOut asks a switch to emit a packet on a port (used to inject test
// traffic at edge switches).
type PacketOut struct {
	Port topo.PortID
	Data []byte
}

// Marshal encodes the PacketOut body.
func (p *PacketOut) Marshal() []byte {
	b := make([]byte, 2+len(p.Data))
	binary.BigEndian.PutUint16(b[0:2], uint16(p.Port))
	copy(b[2:], p.Data)
	return b
}

// UnmarshalPacketOut decodes a PacketOut body.
func UnmarshalPacketOut(b []byte) (*PacketOut, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("openflow: PacketOut truncated")
	}
	return &PacketOut{
		Port: topo.PortID(binary.BigEndian.Uint16(b[0:2])),
		Data: append([]byte(nil), b[2:]...),
	}, nil
}

// ErrorMsg reports a failure processing the message with the given xid.
type ErrorMsg struct {
	Xid    uint32 // xid of the offending request
	Reason string
}

// Marshal encodes the error body.
func (e *ErrorMsg) Marshal() []byte {
	b := make([]byte, 4+len(e.Reason))
	binary.BigEndian.PutUint32(b[0:4], e.Xid)
	copy(b[4:], e.Reason)
	return b
}

// UnmarshalError decodes an error body.
func UnmarshalError(b []byte) (*ErrorMsg, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("openflow: Error truncated")
	}
	return &ErrorMsg{Xid: binary.BigEndian.Uint32(b[0:4]), Reason: string(b[4:])}, nil
}

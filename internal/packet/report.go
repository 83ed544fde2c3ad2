// The tag-report message (§3.3): when a sampled packet leaves the network —
// at an edge port, at the ⊥ drop port, or on TTL expiry — the switch sends
// the verification server a 4-tuple ⟨inport, outport, header, tag⟩,
// "encapsulated with plain UDP packets" (§5). This file defines the report's
// wire format; the report package owns the UDP transport.

package packet

import (
	"encoding/binary"
	"fmt"

	"veridp/internal/bloom"
	"veridp/internal/header"
	"veridp/internal/topo"
)

// ReportPort is the UDP port the verification server listens on.
const ReportPort = 48879

// ReportLen is the fixed wire size of a tag report.
const ReportLen = 34

// reportMagic identifies VeriDP report datagrams.
const reportMagic = 0x5650 // "VP"

// reportVersion is bumped on incompatible format changes.
const reportVersion = 1

// Report is one tag report.
type Report struct {
	Inport  topo.PortKey // entry port of the packet
	Outport topo.PortKey // exit port; Port may be topo.DropPort
	Header  header.Header
	Tag     bloom.Tag
	MBits   uint8 // Bloom filter size the tagger used
}

// String renders the report for logs.
func (r *Report) String() string {
	return fmt.Sprintf("report{%v→%v %v tag=%v}", r.Inport, r.Outport, r.Header, r.Tag)
}

// Marshal encodes the report into its 34-byte wire form.
func (r *Report) Marshal() []byte {
	b := make([]byte, ReportLen)
	binary.BigEndian.PutUint16(b[0:2], reportMagic)
	b[2] = reportVersion
	b[3] = r.MBits
	binary.BigEndian.PutUint16(b[4:6], uint16(r.Inport.Switch))
	binary.BigEndian.PutUint16(b[6:8], uint16(r.Inport.Port))
	binary.BigEndian.PutUint16(b[8:10], uint16(r.Outport.Switch))
	binary.BigEndian.PutUint16(b[10:12], uint16(r.Outport.Port))
	binary.BigEndian.PutUint32(b[12:16], r.Header.SrcIP)
	binary.BigEndian.PutUint32(b[16:20], r.Header.DstIP)
	b[20] = r.Header.Proto
	binary.BigEndian.PutUint16(b[22:24], r.Header.SrcPort)
	binary.BigEndian.PutUint16(b[24:26], r.Header.DstPort)
	binary.BigEndian.PutUint64(b[26:34], uint64(r.Tag))
	return b
}

// UnmarshalReport decodes a wire-form report into a fresh allocation.
func UnmarshalReport(b []byte) (*Report, error) {
	r := new(Report)
	if err := UnmarshalReportInto(b, r); err != nil {
		return nil, err
	}
	return r, nil
}

// UnmarshalReportInto decodes a wire-form report into r, overwriting every
// field. It allocates nothing, so callers on a hot receive path can reuse
// one batch of Reports (the collector's zero-alloc datagram loop). The
// error returns may allocate: they are the cold path, taken only for
// malformed datagrams.
//
//lint:allocfree
func UnmarshalReportInto(b []byte, r *Report) error {
	if len(b) < ReportLen {
		return fmt.Errorf("packet: report truncated (%d bytes)", len(b))
	}
	if binary.BigEndian.Uint16(b[0:2]) != reportMagic {
		return fmt.Errorf("packet: not a VeriDP report")
	}
	if b[2] != reportVersion {
		return fmt.Errorf("packet: unsupported report version %d", b[2])
	}
	*r = Report{
		MBits: b[3],
		Inport: topo.PortKey{
			Switch: topo.SwitchID(binary.BigEndian.Uint16(b[4:6])),
			Port:   topo.PortID(binary.BigEndian.Uint16(b[6:8])),
		},
		Outport: topo.PortKey{
			Switch: topo.SwitchID(binary.BigEndian.Uint16(b[8:10])),
			Port:   topo.PortID(binary.BigEndian.Uint16(b[10:12])),
		},
		Header: header.Header{
			SrcIP:   binary.BigEndian.Uint32(b[12:16]),
			DstIP:   binary.BigEndian.Uint32(b[16:20]),
			Proto:   b[20],
			SrcPort: binary.BigEndian.Uint16(b[22:24]),
			DstPort: binary.BigEndian.Uint16(b[24:26]),
		},
		Tag: bloom.Tag(binary.BigEndian.Uint64(b[26:34])),
	}
	return nil
}

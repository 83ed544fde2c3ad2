// Path-table snapshots: serialize the verification server's full state —
// header-set BDDs, path entries, traversal arrivals, transfer functions,
// and the logical configurations — so a restarted server resumes verifying
// immediately instead of re-running Algorithm 2 (which costs tens of
// seconds at the published rule scales; see EXPERIMENTS.md, Table 2).
// The topology itself is not serialized: it is code- or netfile-defined and
// must be supplied to Load, which validates the snapshot against it.

package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"veridp/internal/bdd"
	"veridp/internal/bloom"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/openflow"
	"veridp/internal/topo"
)

const (
	snapshotMagic   = 0x56445054 // "VDPT"
	snapshotVersion = 1
)

// Save writes the complete path-table state to w.
func (pt *PathTable) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)

	// Collect every BDD root the snapshot references, in a fixed order.
	var roots []bdd.Ref
	addRoot := func(r bdd.Ref) uint32 {
		roots = append(roots, r)
		return uint32(len(roots) - 1)
	}

	type entryRec struct {
		in, out topo.PortKey
		headers uint32
		path    topo.Path
		tag     bloom.Tag
	}
	var entries []entryRec
	pt.Entries(func(in, out topo.PortKey, e *PathEntry) {
		entries = append(entries, entryRec{in, out, addRoot(e.Headers), e.Path, e.Tag})
	})

	type arrivalRec struct {
		sw      topo.SwitchID
		inport  topo.PortKey
		at      topo.PortID
		headers uint32
		prefix  topo.Path
		tag     bloom.Tag
	}
	var arrivals []arrivalRec
	for _, sw := range pt.Net.Switches() {
		for _, a := range pt.arrivals[sw.ID] {
			if a.deleted {
				continue
			}
			arrivals = append(arrivals, arrivalRec{sw.ID, a.Inport, a.At, addRoot(a.Headers), a.Prefix, a.Tag})
		}
	}

	type transferRec struct {
		sw      topo.SwitchID
		pair    flowtable.PortPair
		guard   uint32
		rewrite *header.Rewrite
	}
	var transfers []transferRec
	for _, sw := range pt.Net.Switches() {
		for pair, tes := range pt.transfer[sw.ID] {
			for _, te := range tes {
				transfers = append(transfers, transferRec{sw.ID, pair, addRoot(te.Guard), te.Rewrite})
			}
		}
	}

	// Header.
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], snapshotMagic)
	binary.BigEndian.PutUint32(hdr[4:8], snapshotVersion)
	hdr[8] = uint8(pt.Params.MBits)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}

	// BDD section.
	pos, err := pt.Space.T.Export(bw, roots)
	if err != nil {
		return err
	}

	// Configs: per switch, the rule table (as a dump) and ACLs.
	writeU32 := func(v uint32) error { return binary.Write(bw, binary.BigEndian, v) }
	if err := writeU32(uint32(len(pt.Configs))); err != nil {
		return err
	}
	for _, sw := range pt.Net.Switches() {
		cfg, ok := pt.Configs[sw.ID]
		if !ok {
			continue
		}
		if err := writeU32(uint32(sw.ID)); err != nil {
			return err
		}
		dump := openflow.MarshalTableDump(cfg.Table.Rules())
		if err := writeU32(uint32(len(dump))); err != nil {
			return err
		}
		if _, err := bw.Write(dump); err != nil {
			return err
		}
		for _, dir := range []map[topo.PortID]flowtable.ACL{cfg.InACL, cfg.OutACL} {
			if err := writeU32(uint32(len(dir))); err != nil {
				return err
			}
			for _, p := range sw.Ports() {
				acl, ok := dir[p]
				if !ok {
					continue
				}
				if err := writeU32(uint32(p)); err != nil {
					return err
				}
				if err := writeU32(uint32(len(acl))); err != nil {
					return err
				}
				for _, r := range acl {
					if err := writeACLRule(bw, r); err != nil {
						return err
					}
				}
			}
		}
	}

	// Entries.
	if err := writeU32(uint32(len(entries))); err != nil {
		return err
	}
	for _, e := range entries {
		writePortKey(bw, e.in)
		writePortKey(bw, e.out)
		writeU32(pos[e.headers])
		writePath(bw, e.path)
		binary.Write(bw, binary.BigEndian, uint64(e.tag))
	}

	// Arrivals.
	if err := writeU32(uint32(len(arrivals))); err != nil {
		return err
	}
	for _, a := range arrivals {
		writeU32(uint32(a.sw))
		writePortKey(bw, a.inport)
		writeU32(uint32(a.at))
		writeU32(pos[a.headers])
		writePath(bw, a.prefix)
		binary.Write(bw, binary.BigEndian, uint64(a.tag))
	}

	// Transfer functions.
	if err := writeU32(uint32(len(transfers))); err != nil {
		return err
	}
	for _, tr := range transfers {
		writeU32(uint32(tr.sw))
		writeU32(uint32(tr.pair.In))
		writeU32(uint32(tr.pair.Out))
		writeU32(pos[tr.guard])
		writeRewrite(bw, tr.rewrite)
	}
	return bw.Flush()
}

// Load reconstructs a path table from a snapshot over the given (already
// constructed) topology, using a fresh header space.
func Load(r io.Reader, net *topo.Network) (*PathTable, error) {
	br := bufio.NewReader(r)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: snapshot header: %w", err)
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != snapshotMagic {
		return nil, fmt.Errorf("core: not a path-table snapshot")
	}
	if v := binary.BigEndian.Uint32(hdr[4:8]); v != snapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", v)
	}
	params := bloom.Params{MBits: int(hdr[8])}
	if err := params.Validate(); err != nil {
		return nil, err
	}

	space := header.NewSpace()
	resolve, err := space.T.Import(br)
	if err != nil {
		return nil, err
	}

	pt := newPathTable(net, space, params, make(map[topo.SwitchID]*flowtable.SwitchConfig))

	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.BigEndian, &v)
		return v, err
	}
	checkSwitch := func(id uint32) (topo.SwitchID, error) {
		sw := topo.SwitchID(id)
		if net.Switch(sw) == nil {
			return 0, fmt.Errorf("core: snapshot references unknown switch %d", id)
		}
		return sw, nil
	}

	// Configs.
	nCfg, err := readU32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nCfg; i++ {
		id, err := readU32()
		if err != nil {
			return nil, err
		}
		sw, err := checkSwitch(id)
		if err != nil {
			return nil, err
		}
		dumpLen, err := readU32()
		if err != nil {
			return nil, err
		}
		const maxDump = 64 << 20
		if dumpLen > maxDump {
			return nil, fmt.Errorf("core: implausible config dump of %d bytes", dumpLen)
		}
		dump := make([]byte, dumpLen)
		if _, err := io.ReadFull(br, dump); err != nil {
			return nil, err
		}
		rules, err := openflow.UnmarshalTableDump(dump)
		if err != nil {
			return nil, err
		}
		cfg := flowtable.NewSwitchConfig(net.Switch(sw).Ports())
		for _, r := range rules {
			if _, err := cfg.Table.Add(r); err != nil {
				return nil, err
			}
		}
		for _, dir := range []map[topo.PortID]flowtable.ACL{cfg.InACL, cfg.OutACL} {
			nPorts, err := readU32()
			if err != nil {
				return nil, err
			}
			for j := uint32(0); j < nPorts; j++ {
				port, err := readU32()
				if err != nil {
					return nil, err
				}
				nRules, err := readU32()
				if err != nil {
					return nil, err
				}
				var acl flowtable.ACL
				for k := uint32(0); k < nRules; k++ {
					r, err := readACLRule(br)
					if err != nil {
						return nil, err
					}
					acl = append(acl, r)
				}
				dir[topo.PortID(port)] = acl
			}
		}
		pt.Configs[sw] = cfg
	}

	// Entries.
	nEntries, err := readU32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nEntries; i++ {
		in, err := readPortKey(br)
		if err != nil {
			return nil, err
		}
		out, err := readPortKey(br)
		if err != nil {
			return nil, err
		}
		hp, err := readU32()
		if err != nil {
			return nil, err
		}
		headers, err := resolve(hp)
		if err != nil {
			return nil, err
		}
		path, err := readPath(br)
		if err != nil {
			return nil, err
		}
		var tag uint64
		if err := binary.Read(br, binary.BigEndian, &tag); err != nil {
			return nil, err
		}
		pt.addPath(in, out, headers, path, bloom.Tag(tag))
	}

	// Arrivals.
	nArr, err := readU32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nArr; i++ {
		id, err := readU32()
		if err != nil {
			return nil, err
		}
		sw, err := checkSwitch(id)
		if err != nil {
			return nil, err
		}
		inport, err := readPortKey(br)
		if err != nil {
			return nil, err
		}
		at, err := readU32()
		if err != nil {
			return nil, err
		}
		hp, err := readU32()
		if err != nil {
			return nil, err
		}
		headers, err := resolve(hp)
		if err != nil {
			return nil, err
		}
		prefix, err := readPath(br)
		if err != nil {
			return nil, err
		}
		var tag uint64
		if err := binary.Read(br, binary.BigEndian, &tag); err != nil {
			return nil, err
		}
		pt.addArrival(sw, &arrival{
			Inport: inport, At: topo.PortID(at),
			Headers: headers, Prefix: prefix, Tag: bloom.Tag(tag),
		})
	}

	// Transfer functions.
	nTr, err := readU32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nTr; i++ {
		id, err := readU32()
		if err != nil {
			return nil, err
		}
		sw, err := checkSwitch(id)
		if err != nil {
			return nil, err
		}
		pin, err := readU32()
		if err != nil {
			return nil, err
		}
		pout, err := readU32()
		if err != nil {
			return nil, err
		}
		gp, err := readU32()
		if err != nil {
			return nil, err
		}
		guard, err := resolve(gp)
		if err != nil {
			return nil, err
		}
		rw, err := readRewrite(br)
		if err != nil {
			return nil, err
		}
		if pt.transfer[sw] == nil {
			pt.transfer[sw] = make(map[flowtable.PortPair][]flowtable.TransferEntry)
		}
		pair := flowtable.PortPair{In: topo.PortID(pin), Out: topo.PortID(pout)}
		pt.transfer[sw][pair] = append(pt.transfer[sw][pair], flowtable.TransferEntry{Guard: guard, Rewrite: rw})
	}
	return pt, nil
}

// ---- primitive codecs ----------------------------------------------------

func writePortKey(w io.Writer, pk topo.PortKey) {
	binary.Write(w, binary.BigEndian, uint32(pk.Switch))
	binary.Write(w, binary.BigEndian, uint32(pk.Port))
}

func readPortKey(r io.Reader) (topo.PortKey, error) {
	var sw, p uint32
	if err := binary.Read(r, binary.BigEndian, &sw); err != nil {
		return topo.PortKey{}, err
	}
	if err := binary.Read(r, binary.BigEndian, &p); err != nil {
		return topo.PortKey{}, err
	}
	return topo.PortKey{Switch: topo.SwitchID(sw), Port: topo.PortID(p)}, nil
}

func writePath(w io.Writer, p topo.Path) {
	binary.Write(w, binary.BigEndian, uint32(len(p)))
	for _, h := range p {
		binary.Write(w, binary.BigEndian, uint32(h.In))
		binary.Write(w, binary.BigEndian, uint32(h.Switch))
		binary.Write(w, binary.BigEndian, uint32(h.Out))
	}
}

func readPath(r io.Reader) (topo.Path, error) {
	var n uint32
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return nil, err
	}
	const maxPath = 1 << 16
	if n > maxPath {
		return nil, fmt.Errorf("core: implausible path of %d hops", n)
	}
	out := make(topo.Path, n)
	for i := range out {
		var in, sw, o uint32
		if err := binary.Read(r, binary.BigEndian, &in); err != nil {
			return nil, err
		}
		if err := binary.Read(r, binary.BigEndian, &sw); err != nil {
			return nil, err
		}
		if err := binary.Read(r, binary.BigEndian, &o); err != nil {
			return nil, err
		}
		out[i] = topo.Hop{In: topo.PortID(in), Switch: topo.SwitchID(sw), Out: topo.PortID(o)}
	}
	return out, nil
}

func writeRewrite(w io.Writer, rw *header.Rewrite) {
	var flags uint8
	v := header.Rewrite{}
	if rw != nil {
		v = *rw
	}
	if v.SetSrcIP {
		flags |= 1
	}
	if v.SetDstIP {
		flags |= 2
	}
	if v.SetSrcPort {
		flags |= 4
	}
	if v.SetDstPort {
		flags |= 8
	}
	binary.Write(w, binary.BigEndian, flags)
	binary.Write(w, binary.BigEndian, v.SrcIP)
	binary.Write(w, binary.BigEndian, v.DstIP)
	binary.Write(w, binary.BigEndian, v.SrcPort)
	binary.Write(w, binary.BigEndian, v.DstPort)
}

func readRewrite(r io.Reader) (*header.Rewrite, error) {
	var flags uint8
	var rw header.Rewrite
	if err := binary.Read(r, binary.BigEndian, &flags); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.BigEndian, &rw.SrcIP); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.BigEndian, &rw.DstIP); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.BigEndian, &rw.SrcPort); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.BigEndian, &rw.DstPort); err != nil {
		return nil, err
	}
	rw.SetSrcIP = flags&1 != 0
	rw.SetDstIP = flags&2 != 0
	rw.SetSrcPort = flags&4 != 0
	rw.SetDstPort = flags&8 != 0
	if !rw.SetSrcIP {
		rw.SrcIP = 0
	}
	if !rw.SetDstIP {
		rw.DstIP = 0
	}
	if !rw.SetSrcPort {
		rw.SrcPort = 0
	}
	if !rw.SetDstPort {
		rw.DstPort = 0
	}
	if rw.IsZero() {
		return nil, nil
	}
	return &rw, nil
}

func writeACLRule(w io.Writer, r flowtable.ACLRule) error {
	m := r.Match
	binary.Write(w, binary.BigEndian, uint32(m.InPort))
	binary.Write(w, binary.BigEndian, m.SrcPrefix.IP)
	binary.Write(w, binary.BigEndian, uint8(m.SrcPrefix.Len))
	binary.Write(w, binary.BigEndian, m.DstPrefix.IP)
	binary.Write(w, binary.BigEndian, uint8(m.DstPrefix.Len))
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
	if r.Permit {
		flags |= 8
	}
	binary.Write(w, binary.BigEndian, flags)
	binary.Write(w, binary.BigEndian, m.Proto)
	binary.Write(w, binary.BigEndian, m.SrcPort)
	return binary.Write(w, binary.BigEndian, m.DstPort)
}

func readACLRule(r io.Reader) (flowtable.ACLRule, error) {
	var out flowtable.ACLRule
	var inPort uint32
	var srcLen, dstLen, flags uint8
	fields := []interface{}{&inPort, &out.Match.SrcPrefix.IP, &srcLen, &out.Match.DstPrefix.IP, &dstLen, &flags, &out.Match.Proto, &out.Match.SrcPort, &out.Match.DstPort}
	for _, f := range fields {
		if err := binary.Read(r, binary.BigEndian, f); err != nil {
			return out, err
		}
	}
	if srcLen > 32 || dstLen > 32 {
		return out, fmt.Errorf("core: snapshot ACL prefix length out of range")
	}
	out.Match.InPort = topo.PortID(inPort)
	out.Match.SrcPrefix.Len = int(srcLen)
	out.Match.DstPrefix.Len = int(dstLen)
	out.Match.HasProto = flags&1 != 0
	out.Match.HasSrc = flags&2 != 0
	out.Match.HasDst = flags&4 != 0
	out.Permit = flags&8 != 0
	return out, nil
}

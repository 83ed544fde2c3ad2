// Rule cache: what a restarted verification server cannot recompute.
// Everything the Monitor verifies against — path entries, header-set BDDs,
// transfer functions, tags — is derived by Algorithm 2 from the rules the
// proxy intercepted, so the cache holds only those rules: each switch's
// flow table as one table dump (openflow.MarshalTableDump),
// under a header that names the topology they were learned on. A restart
// decodes them and rebuilds, under the running binary and its own tag
// parameters.
//
// Layout, big-endian:
//
//	"VDPR" | version u32 | topology digest [32]byte | switch count u32
//	then per switch: switch ID u16 | body length u32 | table-dump body

package veridp

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"veridp/internal/core"
	"veridp/internal/flowtable"
	"veridp/internal/openflow"
)

const (
	cacheMagic     = "VDPR"
	cacheVersion   = 1
	cacheHeaderLen = 4 + 4 + sha256.Size + 4
)

// SaveRules encodes every switch's logical rules — what the monitor has
// learned from intercepted FlowMods — for LoadRules to restore. It refuses
// a configuration with ACLs: no FlowMod carries one, and the cache has no
// place for them.
func (m *Monitor) SaveRules() (b []byte, err error) {
	m.handle.Inspect(func(pt *core.PathTable) { b, err = encodeRules(m.net, pt.Configs) })
	return b, err
}

// encodeRules lays out the cache for cfgs, in switch-ID order.
func encodeRules(net *Network, cfgs map[SwitchID]*flowtable.SwitchConfig) ([]byte, error) {
	ids := make([]SwitchID, 0, len(cfgs))
	for id, cfg := range cfgs {
		if cfg.HasACLs() {
			return nil, fmt.Errorf("veridp: switch %d has ACLs, which the rule cache cannot hold", id)
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	d := topologyDigest(net)
	b := binary.BigEndian.AppendUint32([]byte(cacheMagic), cacheVersion)
	b = binary.BigEndian.AppendUint32(append(b, d[:]...), uint32(len(ids)))
	for _, id := range ids {
		dump := openflow.MarshalTableDump(cfgs[id].Table.Rules())
		b = binary.BigEndian.AppendUint16(b, uint16(id))
		b = binary.BigEndian.AppendUint32(b, uint32(len(dump)))
		b = append(b, dump...)
	}
	return b, nil
}

// LoadRules decodes what SaveRules encoded into fresh logical
// configurations, one per switch of net (empty for a switch without a
// record), ready for NewMonitor. A cache saved on another topology, or
// damaged in any way, is an error.
func LoadRules(b []byte, net *Network) (map[SwitchID]*flowtable.SwitchConfig, error) {
	if len(b) < cacheHeaderLen || string(b[:4]) != cacheMagic {
		return nil, errors.New("veridp: not a rule cache")
	}
	if v := binary.BigEndian.Uint32(b[4:8]); v != cacheVersion {
		return nil, fmt.Errorf("veridp: rule cache version %d, want %d", v, cacheVersion)
	}
	if d := topologyDigest(net); !bytes.Equal(b[8:8+sha256.Size], d[:]) {
		return nil, errors.New("veridp: rule cache was saved on another topology")
	}
	n := binary.BigEndian.Uint32(b[8+sha256.Size:])
	b = b[cacheHeaderLen:]
	cfgs := make(map[SwitchID]*flowtable.SwitchConfig, net.NumSwitches())
	for _, sw := range net.Switches() {
		cfgs[sw.ID] = flowtable.NewSwitchConfig(sw.Ports())
	}
	seen := make(map[SwitchID]bool, len(cfgs))
	for i := uint32(0); i < n; i++ {
		if len(b) < 6 {
			return nil, fmt.Errorf("veridp: rule cache truncated at switch record %d of %d", i, n)
		}
		id := SwitchID(binary.BigEndian.Uint16(b[0:2]))
		size := binary.BigEndian.Uint32(b[2:6])
		b = b[6:]
		if net.Switch(id) == nil {
			return nil, fmt.Errorf("veridp: rule cache names unknown switch %d", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("veridp: rule cache holds switch %d twice", id)
		}
		seen[id] = true
		if uint64(len(b)) < uint64(size) {
			return nil, fmt.Errorf("veridp: rule cache truncated in switch %d's rules", id)
		}
		rules, err := openflow.UnmarshalTableDump(b[:size])
		if err != nil {
			return nil, fmt.Errorf("veridp: switch %d: %w", id, err)
		}
		b = b[size:]
		for _, r := range rules {
			if _, err := cfgs[id].Table.Add(r); err != nil {
				return nil, fmt.Errorf("veridp: switch %d: %w", id, err)
			}
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("veridp: %d bytes after the rule cache's last record", len(b))
	}
	return cfgs, nil
}

// topologyDigest hashes what Algorithm 2 reads of the network: every
// switch's ID, name and ports with their roles, and where each link leads.
func topologyDigest(net *Network) [sha256.Size]byte {
	h := sha256.New()
	for _, sw := range net.Switches() {
		fmt.Fprintf(h, "switch %d %q %d\n", sw.ID, sw.Name, sw.NumPorts)
		for _, p := range sw.Ports() {
			peer, _ := net.Peer(PortKey{Switch: sw.ID, Port: p})
			fmt.Fprintf(h, "port %d role %d peer %v\n", p, sw.Role(p), peer)
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

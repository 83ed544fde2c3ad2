// Stanford-backbone-like and Internet2-like topology builders.
//
// The paper evaluates on the real Stanford backbone configuration (16 Cisco
// routers + 10 layer-2 switches, 757,170 forwarding + 1,584 ACL rules) and
// the Internet2 observatory snapshot (9 Juniper routers, 126,017 IPv4
// rules). Those configuration files are not redistributable, so these
// builders synthesize topologies with the published structure; the scenario
// package layers synthetic rule sets with the published scale on top
// (see DESIGN.md, "Substitutions").

package topo

import "fmt"

// StanfordZones are the seven zone-router pairs of the Stanford backbone;
// each zone has an "a" and "b" router (boza/bozb, coza/cozb, ...). The
// function test of §6.2 manipulates boza, bbrb, sozb, cozb, yoza, and yozb.
var StanfordZones = []string{"boz", "coz", "goz", "poz", "roz", "soz", "yoz"}

// Stanford builds the Stanford-backbone-like topology: two backbone routers
// (bbra, bbrb), seven zone-router pairs, and ten layer-2 distribution
// switches. Each backbone router fans out to five L2 switches; each zone
// router uplinks to one bbra-side and one bbrb-side L2 switch; the two
// backbone routers interconnect directly. Every zone router serves
// hostsPerRouter edge ports (≥ 1), hosting subnets 10.(16+router).h.0/24.
func Stanford(hostsPerRouter int) *Network {
	if hostsPerRouter < 1 {
		panic("topo: Stanford needs at least one host per zone router")
	}
	n := NewNetwork()

	// Backbone routers: 1 cross link + 5 L2 downlinks.
	bbra := n.AddSwitch("bbra", 6)
	bbrb := n.AddSwitch("bbrb", 6)
	n.AddLink(bbra.ID, 1, bbrb.ID, 1)

	// Ten L2 switches, five per backbone. Each needs 1 uplink + up to 3
	// zone-router downlinks (14 routers across 5 switches = ceil 3).
	l2a := make([]*Switch, 5)
	l2b := make([]*Switch, 5)
	for i := 0; i < 5; i++ {
		l2a[i] = n.AddSwitch(fmt.Sprintf("l2a-%d", i+1), 4)
		l2b[i] = n.AddSwitch(fmt.Sprintf("l2b-%d", i+1), 4)
		n.AddLink(bbra.ID, PortID(i+2), l2a[i].ID, 1)
		n.AddLink(bbrb.ID, PortID(i+2), l2b[i].ID, 1)
	}

	// Fourteen zone routers: ports 1,2 = uplinks, 3.. = hosts.
	l2aNext := make([]int, 5) // next free downlink port per L2 switch
	l2bNext := make([]int, 5)
	idx := 0
	for _, zone := range StanfordZones {
		for _, side := range []string{"a", "b"} {
			r := n.AddSwitch(zone+side, 2+hostsPerRouter)
			ai := idx % 5
			bi := (idx + 2) % 5 // offset so pairs don't share both L2 switches
			n.AddLink(r.ID, 1, l2a[ai].ID, PortID(2+l2aNext[ai]))
			l2aNext[ai]++
			n.AddLink(r.ID, 2, l2b[bi].ID, PortID(2+l2bNext[bi]))
			l2bNext[bi]++
			for h := 0; h < hostsPerRouter; h++ {
				ip := uint32(10)<<24 | uint32(16+idx)<<16 | uint32(h)<<8 | 1
				n.AddHost(fmt.Sprintf("host-%s%s-%d", zone, side, h), ip, r.ID, PortID(3+h))
			}
			idx++
		}
	}
	return n
}

// StanfordSubnet returns the /16 owned by the idx-th zone router (0-based,
// matching the creation order of Stanford): 10.(16+idx).0.0/16. The scenario
// generator carves its synthetic /24 rules out of these.
func StanfordSubnet(idx int) (prefix uint32, plen int) {
	return uint32(10)<<24 | uint32(16+idx)<<16, 16
}

// internet2Links lists the Abilene-era Internet2 backbone adjacencies among
// its nine PoP routers.
var internet2Links = [][2]string{
	{"seat", "sunn"}, {"seat", "denv"},
	{"sunn", "losa"}, {"sunn", "denv"},
	{"losa", "hous"},
	{"denv", "kans"},
	{"kans", "hous"}, {"kans", "chic"},
	{"hous", "atla"},
	{"chic", "atla"}, {"chic", "wash"},
	{"atla", "wash"},
}

// Internet2Routers are the nine PoP routers, in creation order.
var Internet2Routers = []string{"seat", "sunn", "losa", "denv", "kans", "hous", "chic", "atla", "wash"}

// Internet2 builds the nine-router Internet2/Abilene-like backbone. Each
// router serves hostsPerRouter edge ports with subnets 10.(64+router).h.0/24
// representing the customer networks behind that PoP.
func Internet2(hostsPerRouter int) *Network {
	if hostsPerRouter < 1 {
		panic("topo: Internet2 needs at least one host per router")
	}
	n := NewNetwork()
	// Up to 4 backbone adjacencies per router + host ports.
	for _, name := range Internet2Routers {
		n.AddSwitch(name, 4+hostsPerRouter)
	}
	next := map[string]int{}
	for _, l := range internet2Links {
		a, b := n.SwitchByName(l[0]), n.SwitchByName(l[1])
		n.AddLink(a.ID, PortID(1+next[l[0]]), b.ID, PortID(1+next[l[1]]))
		next[l[0]]++
		next[l[1]]++
	}
	for i, name := range Internet2Routers {
		r := n.SwitchByName(name)
		for h := 0; h < hostsPerRouter; h++ {
			ip := uint32(10)<<24 | uint32(64+i)<<16 | uint32(h)<<8 | 1
			n.AddHost(fmt.Sprintf("host-%s-%d", name, h), ip, r.ID, PortID(5+h))
		}
	}
	return n
}

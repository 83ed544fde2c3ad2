// Package policy is the intent layer of the paper's Figure 1: operators
// state high-level policies (I); Compile translates them into logical
// rules (R) through the controller; Check statically verifies I = R
// against the path table — the control-plane half of the consistency
// story. VeriDP's runtime monitoring then guards the other half, R = F.
// Together they close the full chain the paper's §2.1 lays out: with
// VeriDP ensuring forwarding matches configuration, "operators can focus
// on configuration correctness" — which is exactly what Check automates.
//
// The built-in policies mirror §2.3's intent classes: pairwise
// reachability, access control (isolation), waypoint traversal, and
// traffic-engineering splits.
package policy

import (
	"fmt"

	"veridp/internal/bdd"
	"veridp/internal/controller"
	"veridp/internal/core"
	"veridp/internal/flowtable"
	"veridp/internal/topo"
)

// Policy is one piece of operator intent.
type Policy interface {
	// Describe names the policy for reports.
	Describe() string
	// Compile installs the rules realizing the intent.
	Compile(c *controller.Controller) error
	// Check statically verifies the logical configuration (via its path
	// table) satisfies the intent. A nil error means I = R holds.
	Check(pt *core.PathTable) error
}

// Reachability: traffic from SrcHost must be able to reach DstHost.
type Reachability struct {
	SrcHost, DstHost string
}

// Describe implements Policy.
func (p Reachability) Describe() string {
	return fmt.Sprintf("reachability %s → %s", p.SrcHost, p.DstHost)
}

// Compile routes the destination host network-wide.
func (p Reachability) Compile(c *controller.Controller) error {
	dst := c.Net.Host(p.DstHost)
	if dst == nil {
		return fmt.Errorf("policy: unknown host %q", p.DstHost)
	}
	if c.Net.Host(p.SrcHost) == nil {
		return fmt.Errorf("policy: unknown host %q", p.SrcHost)
	}
	_, err := c.RoutePrefix(flowtable.Prefix{IP: dst.IP, Len: 32}, dst.Attach)
	return err
}

// Check demands a delivered path from the source's edge port to the
// destination's, admitting the pair's traffic.
func (p Reachability) Check(pt *core.PathTable) error {
	src := pt.Net.Host(p.SrcHost)
	dst := pt.Net.Host(p.DstHost)
	if src == nil || dst == nil {
		return fmt.Errorf("policy: unknown host in %s", p.Describe())
	}
	class := pt.Space.T.And(pt.Space.SrcIPEq(src.IP), pt.Space.DstIPEq(dst.IP))
	for _, e := range pt.Lookup(src.Attach, dst.Attach) {
		if pt.Space.T.And(e.Headers, class) != bdd.False {
			return nil
		}
	}
	return fmt.Errorf("policy violated: %s has no delivering path", p.Describe())
}

// Isolation: no traffic from SrcPrefix may be delivered to hosts inside
// DstPrefix (an access-control intent).
type Isolation struct {
	SrcPrefix, DstPrefix flowtable.Prefix
}

// Describe implements Policy.
func (p Isolation) Describe() string {
	return fmt.Sprintf("isolation %s ↛ %s", p.SrcPrefix, p.DstPrefix)
}

// Compile installs high-priority drop rules on every switch attaching a
// host inside DstPrefix.
func (p Isolation) Compile(c *controller.Controller) error {
	match := flowtable.Match{SrcPrefix: p.SrcPrefix, DstPrefix: p.DstPrefix}
	installed := 0
	seen := map[topo.SwitchID]bool{}
	for _, h := range c.Net.Hosts() {
		if !p.DstPrefix.Matches(h.IP) || seen[h.Attach.Switch] {
			continue
		}
		seen[h.Attach.Switch] = true
		if _, err := c.InstallRule(h.Attach.Switch, flowtable.Rule{
			Priority: 60000,
			Match:    match,
			Action:   flowtable.ActDrop,
		}); err != nil {
			return err
		}
		installed++
	}
	if installed == 0 {
		return fmt.Errorf("policy: no hosts inside %s to protect", p.DstPrefix)
	}
	return nil
}

// Check sweeps every delivered path: none may admit the forbidden class
// into a protected host port.
func (p Isolation) Check(pt *core.PathTable) error {
	s := pt.Space
	class := s.T.And(
		s.SrcIPPrefix(p.SrcPrefix.IP, p.SrcPrefix.Len),
		s.DstIPPrefix(p.DstPrefix.IP, p.DstPrefix.Len),
	)
	var violation error
	pt.Entries(func(in, out topo.PortKey, e *core.PathEntry) {
		if violation != nil || out.Port == topo.DropPort {
			return
		}
		if !pt.Net.IsEdgePort(out) {
			return
		}
		// Only protect ports attaching hosts inside DstPrefix.
		attached := attachedHost(pt.Net, out)
		if attached == nil || !p.DstPrefix.Matches(attached.IP) {
			return
		}
		if s.T.And(e.Headers, class) != bdd.False {
			violation = fmt.Errorf("policy violated: %s — path %v delivers forbidden traffic", p.Describe(), e.Path)
		}
	})
	return violation
}

// attachedHost finds the host on an edge port.
func attachedHost(n *topo.Network, pk topo.PortKey) *topo.Host {
	for _, h := range n.Hosts() {
		if h.Attach == pk {
			return h
		}
	}
	return nil
}

// Waypoint: the matched class from SrcHost to DstHost must traverse the
// middlebox port (Figure 2's firewall intent).
type Waypoint struct {
	Match            flowtable.Match
	SrcHost, DstHost string
	Middlebox        topo.PortKey
	Priority         uint16
}

// Describe implements Policy.
func (p Waypoint) Describe() string {
	return fmt.Sprintf("waypoint %s → %v → %s [%s]", p.SrcHost, p.Middlebox, p.DstHost, p.Match)
}

// Compile pins the class through the middlebox hop by hop.
func (p Waypoint) Compile(c *controller.Controller) error {
	src := c.Net.Host(p.SrcHost)
	dst := c.Net.Host(p.DstHost)
	if src == nil || dst == nil {
		return fmt.Errorf("policy: unknown host in %s", p.Describe())
	}
	_, err := c.InstallWaypoint(p.Match, src.Attach, p.Middlebox, dst.Attach, p.Priority)
	return err
}

// Check requires every delivered path admitting the class between the two
// edge ports to include a hop out of the middlebox port.
func (p Waypoint) Check(pt *core.PathTable) error {
	src := pt.Net.Host(p.SrcHost)
	dst := pt.Net.Host(p.DstHost)
	if src == nil || dst == nil {
		return fmt.Errorf("policy: unknown host in %s", p.Describe())
	}
	class := p.Match.HeaderPredicate(pt.Space)
	class = pt.Space.T.And(class, pt.Space.SrcIPEq(src.IP))
	class = pt.Space.T.And(class, pt.Space.DstIPEq(dst.IP))
	checked := false
	for _, e := range pt.Lookup(src.Attach, dst.Attach) {
		if pt.Space.T.And(e.Headers, class) == bdd.False {
			continue
		}
		checked = true
		if !pathUsesPort(e.Path, p.Middlebox) {
			return fmt.Errorf("policy violated: %s — path %v skips the middlebox", p.Describe(), e.Path)
		}
	}
	if !checked {
		return fmt.Errorf("policy violated: %s — no delivering path for the class", p.Describe())
	}
	return nil
}

func pathUsesPort(path topo.Path, pk topo.PortKey) bool {
	for _, hop := range path {
		if hop.Switch == pk.Switch && (hop.Out == pk.Port || hop.In == pk.Port) {
			return true
		}
	}
	return false
}

// Suite bundles policies: compile all, then check all.
type Suite []Policy

// Compile installs every policy, failing fast.
func (s Suite) Compile(c *controller.Controller) error {
	for _, p := range s {
		if err := p.Compile(c); err != nil {
			return fmt.Errorf("compiling %s: %w", p.Describe(), err)
		}
	}
	return nil
}

// Check verifies every policy against the path table, collecting all
// violations.
func (s Suite) Check(pt *core.PathTable) []error {
	var errs []error
	for _, p := range s {
		if err := p.Check(pt); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

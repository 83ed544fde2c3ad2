package controller

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/openflow"
	"veridp/internal/topo"
)

// recorder captures FlowMods instead of applying them.
type recorder struct {
	mu   sync.Mutex
	mods []*openflow.FlowMod
	bars []topo.SwitchID
}

func (r *recorder) Apply(f *openflow.FlowMod) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mods = append(r.mods, f)
	return nil
}

func (r *recorder) Barrier(sw topo.SwitchID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bars = append(r.bars, sw)
	return nil
}

func TestInstallRuleRecordsLogically(t *testing.T) {
	n := topo.Linear(2, 1)
	rec := &recorder{}
	c := New(n, rec)
	sw := n.SwitchByName("s1").ID
	id, err := c.InstallRule(sw, flowtable.Rule{Priority: 5, Action: flowtable.ActOutput, OutPort: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Logical()[sw].Table.Get(id) == nil {
		t.Fatal("logical store missing rule")
	}
	if len(rec.mods) != 1 || rec.mods[0].RuleID != id || rec.mods[0].Command != openflow.FlowAdd {
		t.Fatalf("installer saw %v", rec.mods)
	}
	if _, err := c.InstallRule(99, flowtable.Rule{}); err == nil {
		t.Fatal("unknown switch accepted")
	}
	if err := c.RemoveRule(sw, id); err != nil {
		t.Fatal(err)
	}
	if len(rec.mods) != 2 || rec.mods[1].Command != openflow.FlowDelete {
		t.Fatalf("delete not sent: %v", rec.mods)
	}
	if err := c.RemoveRule(sw, id); err == nil {
		t.Fatal("double remove accepted")
	}
	if err := c.Barrier(); err != nil || len(rec.bars) != n.NumSwitches() {
		t.Fatalf("barrier fanout %d, err %v", len(rec.bars), err)
	}
}

func TestRoutePrefixBuildsDeliveryTree(t *testing.T) {
	n := topo.Linear(3, 1)
	rec := &recorder{}
	c := New(n, rec)
	h3 := n.Host("h3-0")
	ids, err := c.RoutePrefix(flowtable.Prefix{IP: h3.IP, Len: 32}, h3.Attach)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("rules on %d switches, want 3", len(ids))
	}
	// Every switch's logical rule forwards toward h3.
	hdr := header.Header{DstIP: h3.IP}
	for _, sw := range n.Switches() {
		out := c.Logical()[sw.ID].Classify(1, hdr)
		if out == topo.DropPort {
			t.Fatalf("switch %s drops traffic toward the routed prefix", sw.Name)
		}
		if sw.ID == h3.Attach.Switch && out != h3.Attach.Port {
			t.Fatalf("attach switch forwards to %s, want host port %s", out, h3.Attach.Port)
		}
	}
}

func TestWaypointPathValidation(t *testing.T) {
	n := topo.Figure5()
	c := New(n, &recorder{})
	h1 := n.Host("H1").Attach
	h3 := n.Host("H3").Attach
	s2 := n.SwitchByName("S2").ID
	// Port 2 of S2 is a link, not a middlebox.
	if _, err := c.WaypointPath(h1, topo.PortKey{Switch: s2, Port: 2}, h3); err == nil {
		t.Fatal("non-middlebox waypoint accepted")
	}
	path, err := c.WaypointPath(h1, topo.PortKey{Switch: s2, Port: 3}, h3)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 {
		t.Fatalf("waypoint path %v, want 4 hops", path)
	}
	// The reflection appears as out-then-in on the same port.
	if path[1].Out != 3 || path[2].In != 3 {
		t.Fatalf("middlebox reflection missing: %v", path)
	}
}

func TestInstallSplitRouteRequiresECMP(t *testing.T) {
	n := topo.Linear(2, 2) // a chain has exactly one path
	c := New(n, &recorder{})
	classes := []flowtable.Match{{}, {}}
	_, err := c.InstallSplitRoute(n.Host("h1-0").Attach, n.Host("h2-0").Attach, classes, 10)
	if err == nil {
		t.Fatal("two classes accepted with a single path")
	}
}

func TestRouteAllHostsCoversEveryPair(t *testing.T) {
	n := topo.FatTree(4)
	rec := &recorder{}
	c := New(n, rec)
	if err := c.RouteAllHosts(); err != nil {
		t.Fatal(err)
	}
	// Every switch can classify traffic toward every host.
	for _, sw := range n.Switches() {
		for _, h := range n.Hosts() {
			out := c.Logical()[sw.ID].Classify(1, header.Header{DstIP: h.IP})
			if out == topo.DropPort {
				t.Fatalf("switch %s drops traffic to %s", sw.Name, h.Name)
			}
		}
	}
	if len(rec.mods) != n.NumSwitches()*len(n.Hosts()) {
		t.Fatalf("installer saw %d FlowMods, want %d", len(rec.mods), n.NumSwitches()*len(n.Hosts()))
	}
}

func TestInstallPathRulesPinsHops(t *testing.T) {
	n := topo.Linear(3, 1)
	c := New(n, &recorder{})
	path, err := n.HostPath("h1-0", "h3-0")
	if err != nil {
		t.Fatal(err)
	}
	m := flowtable.Match{HasDst: true, DstPort: 443}
	ids, err := c.InstallPathRules(path, m, 777)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(path) {
		t.Fatalf("ids %d for %d hops", len(ids), len(path))
	}
	for i, hop := range path {
		r := c.Logical()[hop.Switch].Table.Get(ids[i])
		if r == nil || r.Match.InPort != hop.In || r.OutPort != hop.Out || r.Priority != 777 {
			t.Fatalf("hop %d rule wrong: %+v", i, r)
		}
	}
	// Drop hops compile to drop rules.
	dropPath := topo.Path{{In: 1, Switch: n.SwitchByName("s1").ID, Out: topo.DropPort}}
	ids, err = c.InstallPathRules(dropPath, m, 778)
	if err != nil {
		t.Fatal(err)
	}
	if r := c.Logical()[dropPath[0].Switch].Table.Get(ids[0]); r.Action != flowtable.ActDrop {
		t.Fatalf("drop hop compiled to %+v", r)
	}
}

func TestInstallWaypointThroughRecorder(t *testing.T) {
	n := topo.Figure5()
	c := New(n, &recorder{})
	mb := topo.PortKey{Switch: n.SwitchByName("S2").ID, Port: 3}
	ids, err := c.InstallWaypoint(flowtable.Match{HasDst: true, DstPort: 22},
		n.Host("H1").Attach, mb, n.Host("H3").Attach, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("waypoint installed %d rules, want 4", len(ids))
	}
}

// TestServerEndToEnd exercises the TCP southbound: a fake switch connects,
// receives a FlowMod, answers a barrier.
func TestServerEndToEnd(t *testing.T) {
	srv := NewServer()
	srv.Timeout = 3 * time.Second
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), l)
	defer srv.Close()

	// Fake switch.
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	swc := openflow.NewConn(raw)
	if err := swc.SendHello(42); err != nil {
		t.Fatal(err)
	}
	received := make(chan *openflow.FlowMod, 1)
	go func() {
		for {
			m, err := swc.Recv()
			if err != nil {
				return
			}
			switch m.Type {
			case openflow.TypeFlowMod:
				if f, err := openflow.UnmarshalFlowMod(m.Body); err == nil {
					received <- f
				}
			case openflow.TypeBarrierRequest:
				swc.SendBarrierReply(m.Xid)
			}
		}
	}()

	if err := srv.WaitForSwitches([]topo.SwitchID{42}); err != nil {
		t.Fatal(err)
	}
	fm := &openflow.FlowMod{Command: openflow.FlowAdd, Switch: 42, RuleID: 7,
		Rule: flowtable.Rule{Priority: 3, Action: flowtable.ActOutput, OutPort: 1}}
	if err := srv.Apply(fm); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-received:
		if got.RuleID != 7 {
			t.Fatalf("switch received %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("FlowMod never arrived")
	}
	if err := srv.Barrier(42); err != nil {
		t.Fatal(err)
	}
	// Unknown switch errors.
	if err := srv.Apply(&openflow.FlowMod{Command: openflow.FlowAdd, Switch: 99}); err == nil {
		t.Fatal("apply to unconnected switch succeeded")
	}
	if err := srv.Barrier(99); err == nil {
		t.Fatal("barrier to unconnected switch succeeded")
	}
}

func TestServerWaitTimeout(t *testing.T) {
	srv := NewServer()
	srv.Timeout = 100 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), l)
	defer srv.Close()
	start := time.Now()
	if err := srv.WaitForSwitches([]topo.SwitchID{1}); err == nil {
		t.Fatal("wait for a never-connecting switch succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout did not bound the wait")
	}
}

// TestServerConcurrentBarriers stresses the reply-delivery path under
// -race: many concurrent Barrier callers against one switch must all
// complete without deadlocking or racing on the waiter map.
func TestServerConcurrentBarriers(t *testing.T) {
	srv := NewServer()
	srv.Timeout = 5 * time.Second
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), l)
	defer srv.Close()

	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	swc := openflow.NewConn(raw)
	if err := swc.SendHello(7); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			m, err := swc.Recv()
			if err != nil {
				return
			}
			if m.Type == openflow.TypeBarrierRequest {
				if err := swc.SendBarrierReply(m.Xid); err != nil {
					return
				}
			}
		}
	}()
	if err := srv.WaitForSwitches([]topo.SwitchID{7}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := srv.Barrier(7); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

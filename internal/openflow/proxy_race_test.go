//go:build race

// Race-gated regression for the serveSwitch join. Each spliced session
// runs two legs (controller→switch, switch→controller) that fire the
// interception hooks; serveSwitch must not return — and therefore Serve
// must not drain — until both legs have exited. The join is a
// sync.WaitGroup the legs Done under defer, replacing an earlier
// hand-rolled buffered done-channel the checkers could not see through.
// This test pins the property the refactor made checkable: after Serve
// returns, no hook can fire, ever. A leaked leg shows up two ways — the
// late-hook counter below, and the race detector flagging the leg's
// hook write against the test's final read.

package openflow

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"veridp/internal/topo"
)

// TestProxyCloseJoinsSpliceLegs floods eight spliced sessions with
// BarrierReplies, closes the proxy mid-flood, and verifies that Serve's
// return is a true join: once it comes back, the hooks have gone silent.
func TestProxyCloseJoinsSpliceLegs(t *testing.T) {
	// Upstream controller: accept every session, complete the hello,
	// then swallow traffic until the proxy tears the leg down.
	ctrlL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrlL.Close()
	go func() {
		for {
			raw, err := ctrlL.Accept()
			if err != nil {
				return
			}
			go func(raw net.Conn) {
				defer raw.Close()
				c := NewConn(raw)
				if _, err := c.RecvHello(); err != nil {
					return
				}
				for {
					if _, err := c.Recv(); err != nil {
						return
					}
				}
			}(raw)
		}
	}()

	var mu sync.Mutex
	served := false // set once Serve has returned
	late := 0       // hook invocations after that point
	record := func() {
		mu.Lock()
		if served {
			late++
		}
		mu.Unlock()
	}
	hooks := ProxyHooks{
		OnBarrierReply: func(topo.SwitchID, uint32) { record() },
	}
	proxy := NewProxy(ctrlL.Addr().String(), hooks, nil)
	proxyL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- proxy.Serve(context.Background(), proxyL) }()

	// Switches: connect through the proxy and flood replies so the
	// switch→controller legs are mid-forward when Close lands.
	var flood sync.WaitGroup
	for i := 0; i < 8; i++ {
		flood.Add(1)
		go func(id topo.SwitchID) {
			defer flood.Done()
			raw, err := net.Dial("tcp", proxyL.Addr().String())
			if err != nil {
				return
			}
			defer raw.Close()
			c := NewConn(raw)
			if err := c.SendHello(id); err != nil {
				return
			}
			for x := uint32(1); ; x++ {
				if err := c.SendBarrierReply(x); err != nil {
					return
				}
			}
		}(topo.SwitchID(i + 1))
	}

	time.Sleep(20 * time.Millisecond) // let the splices carry real traffic
	proxy.Close()
	select {
	case err := <-serveDone:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve returned %v, want net.ErrClosed after Close", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close: a splice leg was not joined")
	}
	mu.Lock()
	served = true
	mu.Unlock()

	flood.Wait()
	// Give any leaked leg a window to fire a hook against the flag.
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if late != 0 {
		t.Fatalf("%d hook call(s) after Serve returned — splice legs outlived the join", late)
	}
}

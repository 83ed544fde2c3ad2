package main

// The harness's side of Figure 4: the upstream controller the proxy
// splices to, and one OpenFlow agent per switch over a shared emulated
// fabric. The server under test sits between the two.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"veridp/internal/controller"
	"veridp/internal/dataplane"
	"veridp/internal/openflow"
)

const (
	installTimeout = 60 * time.Second // barrier wait while a whole switch's rules rebuild
	flowModTimeout = time.Second      // a churn FlowMod with no BarrierReply by then has failed
)

type deployment struct {
	rs       *ruleSet
	ctrl     *controller.Server
	ctrlAddr string
	fabric   *dataplane.Fabric
	mu       sync.Mutex // the fabric lock: agents and probe injection share it

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// newDeployment starts the upstream controller on a free loopback port.
func newDeployment(ctx context.Context, rs *ruleSet) (*deployment, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	d := &deployment{
		rs:       rs,
		ctrl:     controller.NewServer(),
		ctrlAddr: l.Addr().String(),
		fabric:   dataplane.NewFabric(rs.net),
		cancel:   cancel,
	}
	d.ctrl.Timeout = installTimeout
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = d.ctrl.Serve(ctx, l) // returns once ctx is cancelled
	}()
	return d, nil
}

// connect dials one agent per switch into the proxy and waits until the
// controller has seen all of them come through.
func (d *deployment) connect(ctx context.Context, proxyAddr string) error {
	for _, sw := range d.rs.switches {
		var dialer net.Dialer
		c, err := dialer.DialContext(ctx, "tcp", proxyAddr)
		if err != nil {
			return fmt.Errorf("agent %d: %w", sw, err)
		}
		a := &dataplane.Agent{Fabric: d.fabric, ID: sw, Mu: &d.mu}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			_ = a.Run(ctx, c) // ends when close cancels ctx
		}()
	}
	return d.ctrl.WaitForSwitches(d.rs.switches)
}

// install streams the rule set switch by switch, one Barrier per switch.
func (d *deployment) install() error {
	for _, sw := range d.rs.switches {
		for _, m := range d.rs.mods[sw] {
			if err := d.ctrl.Apply(m); err != nil {
				return err
			}
		}
		if err := d.ctrl.Barrier(sw); err != nil {
			return err
		}
	}
	return nil
}

// toggle sends one FlowMod (the rule's FlowAdd, or its delete) followed by
// a Barrier and returns the time until the BarrierReply came back.
func (d *deployment) toggle(m *openflow.FlowMod, add bool) (time.Duration, error) {
	f := m
	if !add {
		f = &openflow.FlowMod{Command: openflow.FlowDelete, Switch: m.Switch, RuleID: m.RuleID}
	}
	start := time.Now()
	if err := d.ctrl.Apply(f); err != nil {
		return 0, err
	}
	if err := d.ctrl.Barrier(f.Switch); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// close tears down the controller and every agent and waits for them.
func (d *deployment) close() {
	d.cancel()
	d.wg.Wait()
}

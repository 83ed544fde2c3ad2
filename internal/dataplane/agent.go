// Agent: the OpenFlow-agent side of an emulated switch (§3.2's "OpenFlow
// agent that terminates the OpenFlow channel"). It dials the controller —
// or, in a VeriDP deployment, the interception proxy — announces its
// switch ID, and serves FlowMods, Barriers, Echo, and PacketOut over the
// southbound protocol. Used by the live examples and cmd/veridp-server
// deployments where rules and packets travel over real TCP.

package dataplane

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"

	"veridp/internal/openflow"
	"veridp/internal/packet"
	"veridp/internal/topo"
)

// Agent serves the southbound channel for one emulated switch. All agents
// of one fabric share Mu: the fabric is single-threaded by design, and the
// lock serializes rule updates and packet injections across connections.
type Agent struct {
	Fabric *Fabric
	ID     topo.SwitchID
	Mu     *sync.Mutex
	Logger *log.Logger // may be nil

	// Sink receives tag reports for packets this agent injects via
	// PacketOut (nil discards them). Sink callbacks are serialized under
	// the fabric lock. guarded by Mu
	Sink ReportSink
}

func (a *Agent) logf(format string, args ...interface{}) {
	if a.Logger != nil {
		a.Logger.Printf("agent[%d]: "+format, append([]interface{}{a.ID}, args...)...)
	}
}

// Run performs the Hello handshake on nc and serves messages until the
// connection closes or ctx is cancelled (which closes the connection,
// failing the parked read). It always returns a non-nil error: ctx.Err()
// after cancellation, the transport error otherwise.
func (a *Agent) Run(ctx context.Context, nc net.Conn) error {
	if a.Fabric.Switch(a.ID) == nil {
		return fmt.Errorf("dataplane: agent for unknown switch %d", a.ID)
	}
	c := openflow.NewConn(nc)
	stop := context.AfterFunc(ctx, func() { c.Close() })
	defer stop()
	if err := c.SendHello(a.ID); err != nil {
		return err
	}
	for {
		m, err := c.Recv()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		if err := a.handle(c, m); err != nil {
			a.logf("xid %d: %v", m.Xid, err)
			if sendErr := c.SendError(m.Xid, err.Error()); sendErr != nil {
				return sendErr
			}
		}
	}
}

// handle dispatches one message.
func (a *Agent) handle(c *openflow.Conn, m *openflow.Message) error {
	switch m.Type {
	case openflow.TypeFlowMod:
		f, err := openflow.UnmarshalFlowMod(m.Body)
		if err != nil {
			return err
		}
		return a.applyFlowMod(f)
	case openflow.TypeBarrierRequest:
		// Applies are synchronous under the lock, so the barrier holds by
		// the time we reply — unlike the too-eager hardware of §2.2.
		return c.SendBarrierReply(m.Xid)
	case openflow.TypePacketOut:
		po, err := openflow.UnmarshalPacketOut(m.Body)
		if err != nil {
			return err
		}
		return a.packetOut(po)
	case openflow.TypeEchoRequest:
		return c.Send(&openflow.Message{Type: openflow.TypeEchoReply, Xid: m.Xid, Body: m.Body})
	case openflow.TypeHello, openflow.TypeEchoReply, openflow.TypeBarrierReply, openflow.TypeError:
		return nil // tolerated
	default:
		return fmt.Errorf("unsupported message %v", m.Type)
	}
}

// applyFlowMod mutates the switch's physical table.
func (a *Agent) applyFlowMod(f *openflow.FlowMod) error {
	a.Mu.Lock()
	defer a.Mu.Unlock()
	return openflow.ApplyFlowMod(a.Fabric.Switch(a.ID).Config.Table, f)
}

// packetOut decodes the carried frame and injects it at the named port.
func (a *Agent) packetOut(po *openflow.PacketOut) error {
	p, err := packet.Parse(po.Data)
	if err != nil {
		return fmt.Errorf("PacketOut carries undecodable frame: %w", err)
	}
	a.Mu.Lock()
	defer a.Mu.Unlock()
	//lint:ignore lockedblock Mu is the documented fabric lock: injection must not race FlowMods, and the sim Sink sends UDP best-effort without blocking
	res, err := a.Fabric.Inject(topo.PortKey{Switch: a.ID, Port: po.Port}, p.Header)
	if err != nil {
		return err
	}
	if a.Sink != nil {
		for _, r := range res.Reports {
			//lint:ignore lockedblock reports ride the fabric-lock contract; the report.Sender sink is a non-blocking UDP datagram write
			a.Sink.HandleReport(r)
		}
	}
	return nil
}

// Length-framed message transport over any net.Conn, with the Hello
// handshake that binds a connection to a switch identity (real OpenFlow
// carries the datapath ID in FeaturesReply; we fold it into Hello).

package openflow

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"veridp/internal/topo"
)

// DefaultIOTimeout bounds each in-flight frame transfer: once the peer
// starts a frame (or we start writing one), the bytes must keep arriving
// within this window or the read/write fails with a timeout. It bounds
// stalled peers, not idle ones — idleness is governed separately.
const DefaultIOTimeout = 10 * time.Second

// Conn is a message-oriented southbound connection. Reads and writes are
// each internally serialized, so one reader goroutine and any number of
// writer goroutines may share a Conn.
//
// Every read and write on the underlying socket is armed with a deadline
// first (the deadline checker enforces this): writes and frame-body reads
// must finish within DefaultIOTimeout; the frame-header read waits forever
// because a healthy OpenFlow session is silent between messages —
// cancelling an idle session is the owner's job, via the context that
// Close()s the Conn and fails the parked read.
type Conn struct {
	c       net.Conn
	readMu  sync.Mutex
	writeMu sync.Mutex
	nextXid atomic.Uint32
}

// NewConn wraps a net.Conn.
func NewConn(c net.Conn) *Conn { return &Conn{c: c} }

// armWrite sets the write deadline for one frame write.
func (c *Conn) armWrite() error {
	return c.c.SetWriteDeadline(time.Now().Add(DefaultIOTimeout))
}

// armRead sets the read deadline for a frame-body read (the frame has
// started; the rest must arrive within the I/O timeout).
func (c *Conn) armRead() error {
	return c.c.SetReadDeadline(time.Now().Add(DefaultIOTimeout))
}

// armIdle clears the read deadline for the between-frames wait: the zero
// time is how "wait forever" is armed.
func (c *Conn) armIdle() error {
	return c.c.SetReadDeadline(time.Time{})
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// RemoteAddr exposes the peer address for logging.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

// NextXid allocates a fresh transaction ID.
func (c *Conn) NextXid() uint32 { return c.nextXid.Add(1) }

// Send writes one message.
func (c *Conn) Send(m *Message) error {
	if len(m.Body) > maxBody {
		return fmt.Errorf("openflow: body too large (%d bytes)", len(m.Body))
	}
	var hdr [headerLen]byte
	hdr[0] = Version
	hdr[1] = uint8(m.Type)
	binary.BigEndian.PutUint16(hdr[2:4], uint16(headerLen+len(m.Body)))
	binary.BigEndian.PutUint32(hdr[4:8], m.Xid)
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := c.armWrite(); err != nil {
		return err
	}
	//lint:ignore lockedblock writeMu exists to serialize frame writes on the shared conn; blocking under it is its contract
	if _, err := c.c.Write(hdr[:]); err != nil {
		return err
	}
	if len(m.Body) > 0 {
		//lint:ignore lockedblock header and body must reach the wire as one frame; releasing between writes would interleave frames
		if _, err := c.c.Write(m.Body); err != nil {
			return err
		}
	}
	return nil
}

// Recv reads one message, blocking until a full frame arrives.
func (c *Conn) Recv() (*Message, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	var hdr [headerLen]byte
	if err := c.armIdle(); err != nil {
		return nil, err
	}
	//lint:ignore lockedblock readMu exists to serialize frame reads on the shared conn; blocking under it is its contract
	if _, err := io.ReadFull(c.c, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != Version {
		return nil, fmt.Errorf("openflow: bad version %#02x", hdr[0])
	}
	length := int(binary.BigEndian.Uint16(hdr[2:4]))
	if length < headerLen || length-headerLen > maxBody {
		return nil, fmt.Errorf("openflow: bad frame length %d", length)
	}
	m := &Message{
		Type: MsgType(hdr[1]),
		Xid:  binary.BigEndian.Uint32(hdr[4:8]),
	}
	if length > headerLen {
		m.Body = make([]byte, length-headerLen)
		if err := c.armRead(); err != nil {
			return nil, err
		}
		//lint:ignore lockedblock the body belongs to the frame whose header this goroutine just consumed; no other reader may run first
		if _, err := io.ReadFull(c.c, m.Body); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// SendHello announces the local switch identity (switches hello first).
func (c *Conn) SendHello(sw topo.SwitchID) error {
	var body [2]byte
	binary.BigEndian.PutUint16(body[:], uint16(sw))
	return c.Send(&Message{Type: TypeHello, Xid: c.NextXid(), Body: body[:]})
}

// RecvHello reads the peer's Hello and returns the announced switch ID.
func (c *Conn) RecvHello() (topo.SwitchID, error) {
	m, err := c.Recv()
	if err != nil {
		return 0, err
	}
	if m.Type != TypeHello || len(m.Body) < 2 {
		return 0, fmt.Errorf("openflow: expected Hello, got %v", m.Type)
	}
	return topo.SwitchID(binary.BigEndian.Uint16(m.Body[:2])), nil
}

// SendFlowMod sends a FlowMod and returns its xid.
func (c *Conn) SendFlowMod(f *FlowMod) (uint32, error) {
	xid := c.NextXid()
	return xid, c.Send(&Message{Type: TypeFlowMod, Xid: xid, Body: f.Marshal()})
}

// SendBarrierRequest sends a BarrierRequest and returns its xid; the peer
// echoes the xid back in BarrierReply after processing everything before it.
func (c *Conn) SendBarrierRequest() (uint32, error) {
	xid := c.NextXid()
	return xid, c.Send(&Message{Type: TypeBarrierRequest, Xid: xid})
}

// SendBarrierReply acknowledges the barrier with the request's xid.
func (c *Conn) SendBarrierReply(xid uint32) error {
	return c.Send(&Message{Type: TypeBarrierReply, Xid: xid})
}

// SendPacketOut injects a packet on the remote switch.
func (c *Conn) SendPacketOut(p *PacketOut) error {
	return c.Send(&Message{Type: TypePacketOut, Xid: c.NextXid(), Body: p.Marshal()})
}

// SendError reports a processing failure for the given request xid.
func (c *Conn) SendError(xid uint32, reason string) error {
	e := &ErrorMsg{Xid: xid, Reason: reason}
	return c.Send(&Message{Type: TypeError, Xid: c.NextXid(), Body: e.Marshal()})
}

// Length-framed message transport over any net.Conn, with the Hello
// handshake that binds a connection to a switch identity (real OpenFlow
// carries the datapath ID in FeaturesReply; we fold it into Hello).

package openflow

import (
	"bytes"
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

// readBufSize is the per-Conn read buffer: one fill holds a burst of 18
// FlowMods (55 bytes each) and the Barrier that closes it. A frame larger
// than this is read into its own allocation.
const readBufSize = 1024

// Conn is a message-oriented southbound connection. Reads and writes are
// each internally serialized, so one reader goroutine and any number of
// writer goroutines may share a Conn.
//
// Reads go through a per-Conn buffer, so a burst that arrives together is
// taken from the socket in one read; each frame, header and body, leaves
// in one write. Every read and write on the underlying socket is armed
// with a deadline first (the deadline checker enforces this): writes and
// the reads that complete a started frame must finish within
// DefaultIOTimeout; the read that waits for the next frame waits forever
// because a healthy OpenFlow session is silent between messages —
// cancelling an idle session is the owner's job, via the context that
// Close()s the Conn and fails the parked read.
type Conn struct {
	c       net.Conn
	readMu  sync.Mutex
	rbuf    []byte // guarded by readMu; rbuf[r:w] is read and not yet returned
	r, w    int    // guarded by readMu
	writeMu sync.Mutex
	out     []byte // guarded by writeMu; frames queued and not yet written
	nextXid atomic.Uint32
}

// NewConn wraps a net.Conn.
func NewConn(c net.Conn) *Conn { return &Conn{c: c} }

// armWrite sets the write deadline for one write.
func (c *Conn) armWrite() error {
	return c.c.SetWriteDeadline(time.Now().Add(DefaultIOTimeout))
}

// armRead sets the read deadline for a read that completes a started
// frame (the rest must arrive within the I/O timeout).
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

// Send writes one message, header and body in one write.
func (c *Conn) Send(m *Message) error { return c.send(m, true) }

// send appends m's frame to the pending output and, when flush is set,
// writes all of it in one write. Only the proxy's relay leaves frames
// pending, to send a burst as one write.
func (c *Conn) send(m *Message, flush bool) error {
	if len(m.Body) > maxBody {
		return fmt.Errorf("openflow: body too large (%d bytes)", len(m.Body))
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.out = append(c.out, Version, uint8(m.Type))
	c.out = binary.BigEndian.AppendUint16(c.out, uint16(headerLen+len(m.Body)))
	c.out = binary.BigEndian.AppendUint32(c.out, m.Xid)
	c.out = append(c.out, m.Body...)
	if !flush {
		return nil
	}
	err := c.armWrite()
	if err == nil {
		//lint:ignore lockedblock writeMu exists to serialize frame writes on the shared conn; blocking under it is its contract
		_, err = c.c.Write(c.out)
	}
	if cap(c.out) > 2*readBufSize {
		c.out = nil // a table dump passed through: do not keep its buffer
	} else {
		c.out = c.out[:0]
	}
	return err
}

// Recv reads one message, blocking until a full frame arrives.
func (c *Conn) Recv() (*Message, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	length, err := c.frameLen()
	for err == nil && (length == 0 || c.w-c.r < length) {
		//lint:ignore lockedblock readMu exists to serialize frame reads on the shared conn; blocking under it is its contract
		if err = c.fill(length); err == nil {
			length, err = c.frameLen()
		}
	}
	if err != nil {
		return nil, err
	}
	frame := c.rbuf[c.r : c.r+length]
	m := &Message{
		Type: MsgType(frame[1]),
		Xid:  binary.BigEndian.Uint32(frame[4:8]),
	}
	switch {
	case length > readBufSize:
		// The frame has the buffer to itself (see fill): hand it over.
		m.Body = frame[headerLen:]
		c.rbuf, c.r, c.w = nil, 0, 0
		return m, nil
	case length > headerLen:
		m.Body = bytes.Clone(frame[headerLen:])
	}
	c.r += length
	return m, nil
}

// buffered reports whether a whole frame is already buffered, so that
// the next Recv returns without reading the socket.
func (c *Conn) buffered() bool {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	length, err := c.frameLen()
	return err == nil && length > 0 && c.w-c.r >= length
}

// frameLen returns the length of the frame at the front of the buffer, or
// 0 while its header is incomplete. A header that no frame can have is an
// error, returned again by every later call: the stream has lost framing.
//
// lint:held readMu
func (c *Conn) frameLen() (int, error) {
	if c.w-c.r < headerLen {
		return 0, nil
	}
	hdr := c.rbuf[c.r : c.r+headerLen]
	if hdr[0] != Version {
		return 0, fmt.Errorf("openflow: bad version %#02x", hdr[0])
	}
	length := int(binary.BigEndian.Uint16(hdr[2:4]))
	if length < headerLen || length-headerLen > maxBody {
		return 0, fmt.Errorf("openflow: bad frame length %d", length)
	}
	return length, nil
}

// fill makes one read from the socket into the buffer, first moving the
// unread bytes to its front, or into a buffer of their own when the frame
// they start (need bytes; 0 while its header is incomplete) is larger
// than readBufSize. With nothing buffered it waits for the peer without
// a deadline; inside a frame it waits at most DefaultIOTimeout.
//
// lint:held readMu
func (c *Conn) fill(need int) error {
	buf := c.rbuf
	if size := max(need, readBufSize); len(buf) < size {
		buf = make([]byte, size)
	}
	c.w = copy(buf, c.rbuf[c.r:c.w])
	c.r, c.rbuf = 0, buf
	var err error
	if c.w == 0 {
		err = c.armIdle()
	} else {
		err = c.armRead()
	}
	if err != nil {
		return err
	}
	n, err := c.c.Read(buf[c.w:])
	c.w += n
	switch {
	case n > 0:
		return nil
	case err == io.EOF && c.w > 0:
		return io.ErrUnexpectedEOF
	case err == nil:
		return io.ErrNoProgress
	}
	return err
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

package openflow

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"veridp/internal/flowtable"
	"veridp/internal/topo"
)

// encodeFrame is the wire form of m: the header, then the body.
func encodeFrame(m *Message) []byte {
	b := []byte{Version, uint8(m.Type), 0, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint16(b[2:4], uint16(headerLen+len(m.Body)))
	binary.BigEndian.PutUint32(b[4:8], m.Xid)
	return append(b, m.Body...)
}

// burstFrames is what the controller sends for one switch's burst: n
// FlowMods (xids 1..n) and the BarrierRequest that closes them (xid n+1).
func burstFrames(n int) []byte {
	var b []byte
	for i := 1; i <= n; i++ {
		fm := &FlowMod{Command: FlowAdd, Switch: 3, RuleID: uint64(i),
			Rule: flowtable.Rule{Priority: uint16(i), Action: flowtable.ActOutput, OutPort: 1}}
		b = append(b, encodeFrame(&Message{Type: TypeFlowMod, Xid: uint32(i), Body: fm.Marshal()})...)
	}
	return append(b, encodeFrame(&Message{Type: TypeBarrierRequest, Xid: uint32(n + 1)})...)
}

// streamConn serves a fixed byte stream to a Conn, step bytes per Read
// (0: as many as fit), then io.EOF, and records what the Conn writes.
// Deadlines are accepted and ignored.
type streamConn struct {
	net.Conn
	data    []byte
	step    int
	written []byte
}

func (s *streamConn) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	if s.step > 0 && len(p) > s.step {
		p = p[:s.step]
	}
	n := copy(p, s.data)
	s.data = s.data[n:]
	return n, nil
}

func (s *streamConn) Write(p []byte) (int, error) {
	s.written = append(s.written, p...)
	return len(p), nil
}

func (s *streamConn) SetReadDeadline(time.Time) error  { return nil }
func (s *streamConn) SetWriteDeadline(time.Time) error { return nil }

// recvAll receives from data, step bytes per socket read, until the
// first error.
func recvAll(data []byte, step int) ([]*Message, error) {
	c := NewConn(&streamConn{data: data, step: step})
	var msgs []*Message
	for {
		m, err := c.Recv()
		if err != nil {
			return msgs, err
		}
		msgs = append(msgs, m)
	}
}

// FuzzConnRecv: framing must not depend on how the stream is cut into
// reads. The same bytes, delivered in reads as large as the buffer takes
// and one byte per read, give the same messages and the same first error;
// and sending those messages again reproduces the stream they came from.
func FuzzConnRecv(f *testing.F) {
	big := encodeFrame(&Message{Type: TypeEchoRequest, Xid: 7, Body: bytes.Repeat([]byte{0xab}, 3*readBufSize)})
	f.Add(append(big, encodeFrame(&Message{Type: TypeBarrierReply, Xid: 8})...))
	f.Add(big[:2*readBufSize])
	f.Fuzz(func(t *testing.T, data []byte) {
		whole, werr := recvAll(data, 0)
		bytewise, berr := recvAll(data, 1)
		if werr.Error() != berr.Error() {
			t.Fatalf("first error: %v in whole reads, %v in one-byte reads", werr, berr)
		}
		if len(whole) != len(bytewise) {
			t.Fatalf("%d messages in whole reads, %d in one-byte reads", len(whole), len(bytewise))
		}
		out := &streamConn{}
		c := NewConn(out)
		for i, m := range whole {
			b := bytewise[i]
			if m.Type != b.Type || m.Xid != b.Xid || !bytes.Equal(m.Body, b.Body) {
				t.Fatalf("message %d: %v xid %d (%d bytes) vs %v xid %d (%d bytes)",
					i, m.Type, m.Xid, len(m.Body), b.Type, b.Xid, len(b.Body))
			}
			if err := c.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.HasPrefix(data, out.written) {
			t.Fatalf("re-sent frames (%d bytes) are not the prefix of the stream they came from", len(out.written))
		}
		roundTrip(t, data)
	})
}

// roundTrip sends one frame whose body is data repeated to the length its
// first two bytes give: a body up to maxBody must come back from Recv as
// it was sent, and a larger one must be refused with nothing written.
func roundTrip(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	body := bytes.Repeat(data, int(binary.BigEndian.Uint16(data))/len(data)+1)[:binary.BigEndian.Uint16(data)]
	out := &streamConn{}
	err := NewConn(out).Send(&Message{Type: TypeEchoRequest, Xid: 9, Body: body})
	if len(body) > maxBody {
		if err == nil || len(out.written) > 0 {
			t.Fatalf("%d-byte body: send returned %v and wrote %d bytes; want an error and no bytes", len(body), err, len(out.written))
		}
		return
	}
	if err != nil {
		t.Fatalf("%d-byte body: %v", len(body), err)
	}
	m, err := NewConn(&streamConn{data: out.written}).Recv()
	if err != nil {
		t.Fatalf("%d-byte body: recv: %v", len(body), err)
	}
	if m.Type != TypeEchoRequest || m.Xid != 9 || !bytes.Equal(m.Body, body) {
		t.Fatalf("%d-byte body came back as %v xid %d with %d bytes", len(body), m.Type, m.Xid, len(m.Body))
	}
}

// TestSendRejectsOversizedBody: a body one byte past what the 16-bit
// length field can frame is refused, and no byte of it reaches the
// socket; a body of exactly maxBody round-trips.
func TestSendRejectsOversizedBody(t *testing.T) {
	out := &streamConn{}
	if err := NewConn(out).Send(&Message{Type: TypeEchoRequest, Body: make([]byte, maxBody+1)}); err == nil {
		t.Fatal("oversized body sent")
	}
	if len(out.written) > 0 {
		t.Fatalf("oversized body wrote %d bytes", len(out.written))
	}
	roundTrip(t, binary.BigEndian.AppendUint16(nil, maxBody))
	roundTrip(t, binary.BigEndian.AppendUint16(nil, maxBody+1))
}

// recvWithin receives one message from c, failing the test if none comes
// within d.
func recvWithin(t *testing.T, c *Conn, d time.Duration) *Message {
	t.Helper()
	type result struct {
		m   *Message
		err error
	}
	// chan: buffered 1 — the receiver hands off its result even if the wait timed out
	ch := make(chan result, 1)
	go func() {
		m, err := c.Recv()
		ch <- result{m, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("recv: %v", r.err)
		}
		return r.m
	case <-time.After(d):
		c.Close()
		t.Fatalf("no frame within %v", d)
		return nil
	}
}

// TestProxyRelaysBurstWithoutHoldingBack: the controller writes nine
// FlowMods, a BarrierRequest and the first four bytes of one more frame in
// one write, then stops. The switch must read all ten whole frames, in
// order, while the last frame is still incomplete — a relay that waited
// in Recv with output pending would hold them until it completed — and
// OnFlowMod must have run for each FlowMod before the switch reads it.
func TestProxyRelaysBurstWithoutHoldingBack(t *testing.T) {
	const n = 9
	ctrlL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrlL.Close()
	// chan: buffered 1 — the acceptor hands over the one upstream conn without rendezvous
	upstream := make(chan net.Conn, 1)
	go func() {
		raw, err := ctrlL.Accept()
		if err != nil {
			return
		}
		if _, err := NewConn(raw).RecvHello(); err != nil {
			raw.Close()
			return
		}
		upstream <- raw
	}()

	var mu sync.Mutex
	var hooked []uint64 // RuleIDs in the order OnFlowMod saw them
	hooks := ProxyHooks{OnFlowMod: func(_ topo.SwitchID, f *FlowMod) {
		mu.Lock()
		hooked = append(hooked, f.RuleID)
		mu.Unlock()
	}}
	proxy := NewProxy(ctrlL.Addr().String(), hooks, nil)
	proxyL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go proxy.Serve(context.Background(), proxyL)
	defer proxy.Close()

	raw, err := net.Dial("tcp", proxyL.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	swc := NewConn(raw)
	if err := swc.SendHello(3); err != nil {
		t.Fatal(err)
	}
	var up net.Conn
	select {
	case up = <-upstream:
		defer up.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("proxy did not dial the controller")
	}

	tail := encodeFrame(&Message{Type: TypeEchoRequest, Xid: n + 2, Body: []byte("tail")})
	if _, err := up.Write(append(burstFrames(n), tail[:4]...)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n+1; i++ {
		m := recvWithin(t, swc, 5*time.Second)
		want := TypeFlowMod
		if i == n+1 {
			want = TypeBarrierRequest
		}
		if m.Type != want || m.Xid != uint32(i) {
			t.Fatalf("frame %d: got %v xid %d, want %v xid %d", i, m.Type, m.Xid, want, i)
		}
		if m.Type == TypeFlowMod {
			mu.Lock()
			ok := len(hooked) >= i && hooked[i-1] == uint64(i)
			mu.Unlock()
			if !ok {
				t.Fatalf("switch read FlowMod %d before OnFlowMod ran for it", i)
			}
		}
	}
	if _, err := up.Write(tail[4:]); err != nil {
		t.Fatal(err)
	}
	if m := recvWithin(t, swc, 5*time.Second); m.Type != TypeEchoRequest || string(m.Body) != "tail" {
		t.Fatalf("completed frame: %+v", m)
	}
}

package openflow

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"

	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/topo"
)

// declaredMsgTypes enumerates every MsgType the package declares, using
// String() as the ground truth: a declared constant has a name, an
// undeclared value prints as "MsgType(n)". This keeps the round-trip
// table honest without hand-maintaining a second list.
func declaredMsgTypes() []MsgType {
	var out []MsgType
	for v := 1; v < 256; v++ {
		if mt := MsgType(v); !strings.HasPrefix(mt.String(), "MsgType(") {
			out = append(out, mt)
		}
	}
	return out
}

// wireCase is one golden round-trip: a representative body for the type
// and a decode→re-encode function proving the body codec is lossless.
type wireCase struct {
	body   []byte
	rebody func([]byte) ([]byte, error)
}

// identityEmpty is the codec of bodyless messages.
func identityEmpty(b []byte) ([]byte, error) {
	if len(b) != 0 {
		return nil, fmt.Errorf("unexpected body (%d bytes)", len(b))
	}
	return nil, nil
}

func wireCases() map[MsgType]wireCase {
	fm := &FlowMod{Command: FlowModify, Switch: 7, RuleID: 0xdeadbeef,
		Rule: flowtable.Rule{
			Priority: 100,
			Match: flowtable.Match{InPort: 3, HasProto: true, Proto: 6,
				SrcPrefix: flowtable.Prefix{IP: 0x0a000000, Len: 8}},
			Action:  flowtable.ActOutput,
			OutPort: 2,
			Rewrite: &header.Rewrite{SetDstIP: true, DstIP: 0x0a000102, SetSrcPort: true, SrcPort: 9999},
		}}
	po := &PacketOut{Port: 5, Data: []byte("injected frame")}
	em := &ErrorMsg{Xid: 42, Reason: "table full"}

	hello := make([]byte, 2)
	binary.BigEndian.PutUint16(hello, 0x1234)

	return map[MsgType]wireCase{
		TypeHello: {body: hello, rebody: func(b []byte) ([]byte, error) {
			if len(b) < 2 {
				return nil, fmt.Errorf("hello truncated")
			}
			out := make([]byte, 2)
			binary.BigEndian.PutUint16(out, uint16(topo.SwitchID(binary.BigEndian.Uint16(b[:2]))))
			return out, nil
		}},
		TypeEchoRequest:    {rebody: identityEmpty},
		TypeEchoReply:      {rebody: identityEmpty},
		TypeBarrierRequest: {rebody: identityEmpty},
		TypeBarrierReply:   {rebody: identityEmpty},
		TypeFlowMod: {body: fm.Marshal(), rebody: func(b []byte) ([]byte, error) {
			f, err := UnmarshalFlowMod(b)
			if err != nil {
				return nil, err
			}
			return f.Marshal(), nil
		}},
		TypePacketOut: {body: po.Marshal(), rebody: func(b []byte) ([]byte, error) {
			p, err := UnmarshalPacketOut(b)
			if err != nil {
				return nil, err
			}
			return p.Marshal(), nil
		}},
		TypeError: {body: em.Marshal(), rebody: func(b []byte) ([]byte, error) {
			e, err := UnmarshalError(b)
			if err != nil {
				return nil, err
			}
			return e.Marshal(), nil
		}},
	}
}

// TestWireRoundTripAllMessageTypes is the dynamic companion to the
// enumswitch checker: every declared message type must have a golden
// case, and each case must survive frame transport (Send/Recv over a
// real connection) and a body decode→re-encode bit-exactly. Adding a
// MsgType constant without extending wireCases fails here.
func TestWireRoundTripAllMessageTypes(t *testing.T) {
	cases := wireCases()
	for _, mt := range declaredMsgTypes() {
		if _, ok := cases[mt]; !ok {
			t.Errorf("message type %v has no wire round-trip case; extend wireCases", mt)
		}
	}
	for mt := range cases {
		if strings.HasPrefix(mt.String(), "MsgType(") {
			t.Errorf("wireCases has entry for undeclared type %d", uint8(mt))
		}
	}

	for _, mt := range declaredMsgTypes() {
		wc, ok := cases[mt]
		if !ok {
			continue // already reported above
		}
		t.Run(mt.String(), func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			defer server.Close()
			c1, c2 := NewConn(client), NewConn(server)

			sent := &Message{Type: mt, Xid: 77, Body: wc.body}
			errc := make(chan error, 1)
			go func() { errc <- c1.Send(sent) }()
			got, err := c2.Recv()
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			if err := <-errc; err != nil {
				t.Fatalf("send: %v", err)
			}
			if got.Type != mt || got.Xid != 77 || !bytes.Equal(got.Body, wc.body) {
				t.Fatalf("frame drifted: %v xid=%d body=%x, want %v xid=77 body=%x",
					got.Type, got.Xid, got.Body, mt, wc.body)
			}
			re, err := wc.rebody(got.Body)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !bytes.Equal(re, wc.body) {
				t.Fatalf("body round trip drifted:\n got %x\nwant %x", re, wc.body)
			}
		})
	}
}

// Regression tests for the wiretaint hardening: the inner decoders must
// return errors on truncated windows, never panic. Before the fix both
// indexed their argument on the callers' length contract alone.
func TestUnmarshalMatchTruncated(t *testing.T) {
	for n := 0; n < matchLen; n++ {
		if _, err := unmarshalMatch(make([]byte, n)); err == nil {
			t.Fatalf("unmarshalMatch accepted %d bytes (want error below %d)", n, matchLen)
		}
	}
	if _, err := unmarshalMatch(make([]byte, matchLen)); err != nil {
		t.Fatalf("unmarshalMatch rejected a full window: %v", err)
	}
}

func TestUnmarshalRewriteTruncated(t *testing.T) {
	for n := 0; n < rewriteLen; n++ {
		if _, err := unmarshalRewrite(make([]byte, n)); err == nil {
			t.Fatalf("unmarshalRewrite accepted %d bytes (want error below %d)", n, rewriteLen)
		}
	}
	if _, err := unmarshalRewrite(make([]byte, rewriteLen)); err != nil {
		t.Fatalf("unmarshalRewrite rejected a full window: %v", err)
	}
}

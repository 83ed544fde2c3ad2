// Server: the controller's southbound endpoint. It accepts switch
// connections (usually spliced through the VeriDP proxy), tracks them by
// announced switch ID, and implements the Installer interface over them —
// so the same Controller compiles policies whether the data plane is
// in-process or at the far end of a TCP channel.

package controller

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"veridp/internal/netutil"
	"veridp/internal/openflow"
	"veridp/internal/topo"
)

// Server accepts and serves switch connections.
type Server struct {
	// Timeout bounds Apply/Barrier waits for a switch connection and for
	// barrier replies (default 10s).
	Timeout time.Duration

	acceptRetries atomic.Uint64 // temporary Accept errors retried with backoff

	mu       sync.Mutex
	conns    map[topo.SwitchID]*openflow.Conn // guarded by mu
	raws     map[net.Conn]struct{}            // guarded by mu; accepted conns incl. pre-Hello
	barriers map[barrierKey]chan struct{}     // guarded by mu
	arrived  *sync.Cond
	closed   bool           // guarded by mu
	listener net.Listener   // guarded by mu
	draining sync.WaitGroup // one unit per serveConn goroutine
}

type barrierKey struct {
	sw  topo.SwitchID
	xid uint32
}

// NewServer returns an idle server; call Serve with a listener.
func NewServer() *Server {
	s := &Server{
		Timeout:  10 * time.Second,
		conns:    make(map[topo.SwitchID]*openflow.Conn),
		raws:     make(map[net.Conn]struct{}),
		barriers: make(map[barrierKey]chan struct{}),
	}
	s.arrived = sync.NewCond(&s.mu)
	return s
}

// AcceptRetries returns how many temporary Accept errors the server has
// ridden out with backoff since it started.
func (s *Server) AcceptRetries() uint64 { return s.acceptRetries.Load() }

// Serve accepts switch connections until ctx is cancelled or Close is
// called, then drains every per-switch goroutine before returning. It
// always returns a non-nil error: ctx.Err() after cancellation,
// net.ErrClosed after Close. Temporary Accept errors are retried with
// capped exponential backoff rather than killing the listener.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()

	// Cancellation is delivered by closing the listener and every switch
	// conn, which fails the parked Accept/Recv calls below.
	stop := context.AfterFunc(ctx, s.Close)
	defer stop()

	var bo netutil.Backoff
	for {
		c, err := l.Accept()
		if err != nil {
			if netutil.IsTemporary(err) && bo.Sleep(ctx) {
				s.acceptRetries.Add(1)
				continue
			}
			s.draining.Wait()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		bo.Reset()
		s.draining.Add(1)
		go func() {
			defer s.draining.Done()
			s.serveConn(c)
		}()
	}
}

// Close shuts the listener and every switch connection (including
// accepted conns still mid-handshake), unblocking Serve's drain.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.raws {
		c.Close()
	}
	s.arrived.Broadcast()
}

func (s *Server) serveConn(raw net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		raw.Close()
		return
	}
	s.raws[raw] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.raws, raw)
		s.mu.Unlock()
		raw.Close()
	}()

	c := openflow.NewConn(raw)
	sw, err := c.RecvHello()
	if err != nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[sw] = c
	s.arrived.Broadcast()
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		if s.conns[sw] == c {
			delete(s.conns, sw)
		}
		s.mu.Unlock()
	}()

	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		switch m.Type {
		case openflow.TypeBarrierReply:
			s.mu.Lock()
			if ch, ok := s.barriers[barrierKey{sw, m.Xid}]; ok {
				close(ch)
				delete(s.barriers, barrierKey{sw, m.Xid})
			}
			s.mu.Unlock()
		case openflow.TypeEchoRequest:
			// A failed echo reply means the channel is dead; drop the
			// connection rather than let the switch keep believing it is
			// being served.
			if err := c.Send(&openflow.Message{Type: openflow.TypeEchoReply, Xid: m.Xid, Body: m.Body}); err != nil {
				return
			}
		default:
			// Errors and stray messages are tolerated; a real controller
			// would log them.
		}
	}
}

// WaitForSwitches blocks until every listed switch has connected (or the
// server's timeout elapses).
func (s *Server) WaitForSwitches(ids []topo.SwitchID) error {
	deadline := time.Now().Add(s.Timeout)
	// A timer wakes the condition variable so waits can expire.
	t := time.AfterFunc(s.Timeout, func() {
		s.mu.Lock()
		s.arrived.Broadcast()
		s.mu.Unlock()
	})
	defer t.Stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		missing := 0
		for _, id := range ids {
			if s.conns[id] == nil {
				missing++
			}
		}
		if missing == 0 {
			return nil
		}
		if s.closed {
			return fmt.Errorf("controller: server closed while waiting for switches")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("controller: %d switches missing after %v", missing, s.Timeout)
		}
		s.arrived.Wait()
	}
}

// conn fetches the connection for a switch.
func (s *Server) conn(sw topo.SwitchID) (*openflow.Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.conns[sw]
	if c == nil {
		return nil, fmt.Errorf("controller: switch %d not connected", sw)
	}
	return c, nil
}

// Apply sends the FlowMod to its target switch.
func (s *Server) Apply(f *openflow.FlowMod) error {
	c, err := s.conn(f.Switch)
	if err != nil {
		return err
	}
	_, err = c.SendFlowMod(f)
	return err
}

// Barrier sends a BarrierRequest and waits for the matching reply.
func (s *Server) Barrier(sw topo.SwitchID) error {
	c, err := s.conn(sw)
	if err != nil {
		return err
	}
	ch := make(chan struct{})
	xid := c.NextXid()
	s.mu.Lock()
	s.barriers[barrierKey{sw, xid}] = ch
	s.mu.Unlock()
	if err := c.Send(&openflow.Message{Type: openflow.TypeBarrierRequest, Xid: xid}); err != nil {
		s.mu.Lock()
		delete(s.barriers, barrierKey{sw, xid})
		s.mu.Unlock()
		return err
	}
	// A stopped Timer is reclaimed immediately; time.After would pin its
	// channel until the full Timeout elapses even on the fast path.
	t := time.NewTimer(s.Timeout)
	defer t.Stop()
	select {
	case <-ch:
		return nil
	case <-t.C:
		s.mu.Lock()
		delete(s.barriers, barrierKey{sw, xid})
		s.mu.Unlock()
		return fmt.Errorf("controller: barrier timeout on switch %d", sw)
	}
}

// PacketOut asks the switch to emit a frame on a port.
func (s *Server) PacketOut(sw topo.SwitchID, port topo.PortID, data []byte) error {
	c, err := s.conn(sw)
	if err != nil {
		return err
	}
	return c.SendPacketOut(&openflow.PacketOut{Port: port, Data: data})
}

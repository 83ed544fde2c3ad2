// The VeriDP interception proxy (§3.2): it sits on the OpenFlow channel
// between the controller and every switch, forwarding messages unchanged in
// both directions while feeding FlowMods to the verification server so the
// path table tracks what the controller believes it installed.

package openflow

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"veridp/internal/netutil"
	"veridp/internal/topo"
)

// dialTimeout bounds the upstream controller dial for one spliced session.
const dialTimeout = 10 * time.Second

// ProxyHooks receives intercepted control traffic. Callbacks run on the
// proxy's per-connection goroutines; implementations must be safe for
// concurrent use. A nil hook is skipped.
type ProxyHooks struct {
	// OnFlowMod fires for every controller→switch FlowMod, before it is
	// forwarded to the switch.
	OnFlowMod func(sw topo.SwitchID, f *FlowMod)
	// OnBarrierReply fires for every switch→controller BarrierReply.
	OnBarrierReply func(sw topo.SwitchID, xid uint32)
}

// Proxy accepts switch connections and splices each to its own upstream
// controller connection.
type Proxy struct {
	controllerAddr string
	hooks          ProxyHooks
	logger         *log.Logger

	acceptRetries atomic.Uint64 // temporary Accept errors retried with backoff
	toSwitch      relayStats    // controller → switch leg, over every session
	toController  relayStats    // switch → controller leg, over every session

	mu       sync.Mutex
	listener net.Listener          // guarded by mu
	sessions map[net.Conn]struct{} // guarded by mu
	closed   bool                  // guarded by mu
	draining sync.WaitGroup        // one unit per serveSwitch goroutine
}

// NewProxy returns a proxy that splices to the controller at addr. logger
// may be nil to disable logging.
func NewProxy(controllerAddr string, hooks ProxyHooks, logger *log.Logger) *Proxy {
	return &Proxy{
		controllerAddr: controllerAddr,
		hooks:          hooks,
		logger:         logger,
		sessions:       make(map[net.Conn]struct{}),
	}
}

func (p *Proxy) logf(format string, args ...interface{}) {
	if p.logger != nil {
		p.logger.Printf("proxy: "+format, args...)
	}
}

// relayStats counts one splice direction: frames relayed, and the writes
// that carried them. frames ÷ writes is how many frames a write carried.
type relayStats struct {
	frames atomic.Uint64
	writes atomic.Uint64
}

// AcceptRetries returns how many temporary Accept errors the proxy has
// ridden out with backoff since it started.
func (p *Proxy) AcceptRetries() uint64 { return p.acceptRetries.Load() }

// WriteMetrics emits the proxy's counters in the Prometheus text
// exposition format: frames relayed and socket writes per splice
// direction, and AcceptRetries.
func (p *Proxy) WriteMetrics(w io.Writer) error {
	_, err := fmt.Fprintf(w, "# TYPE veridp_openflow_frames_total counter\n"+
		"veridp_openflow_frames_total{dir=\"to_switch\"} %d\n"+
		"veridp_openflow_frames_total{dir=\"to_controller\"} %d\n"+
		"# TYPE veridp_openflow_writes_total counter\n"+
		"veridp_openflow_writes_total{dir=\"to_switch\"} %d\n"+
		"veridp_openflow_writes_total{dir=\"to_controller\"} %d\n"+
		"# TYPE veridp_proxy_accept_retries_total counter\n"+
		"veridp_proxy_accept_retries_total %d\n",
		p.toSwitch.frames.Load(), p.toController.frames.Load(),
		p.toSwitch.writes.Load(), p.toController.writes.Load(),
		p.AcceptRetries())
	return err
}

// Serve accepts switch connections on l until ctx is cancelled or Close
// is called, then drains every spliced session before returning. It
// always returns a non-nil error: ctx.Err() after cancellation,
// net.ErrClosed after Close. Temporary Accept errors are retried with
// capped exponential backoff rather than killing the listener.
func (p *Proxy) Serve(ctx context.Context, l net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("openflow: proxy already closed")
	}
	p.listener = l
	p.mu.Unlock()

	// Cancellation is delivered by closing the listener and sessions,
	// which fails the parked Accept/Recv calls below.
	stop := context.AfterFunc(ctx, p.Close)
	defer stop()

	var bo netutil.Backoff
	for {
		c, err := l.Accept()
		if err != nil {
			if netutil.IsTemporary(err) && bo.Sleep(ctx) {
				p.acceptRetries.Add(1)
				p.logf("temporary accept error, retrying: %v", err)
				continue
			}
			p.draining.Wait()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		bo.Reset()
		p.draining.Add(1)
		go func() {
			defer p.draining.Done()
			p.serveSwitch(ctx, c)
		}()
	}
}

// Close stops the accept loop and tears down every spliced session. The
// session goroutines are drained by Serve before it returns.
func (p *Proxy) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	if p.listener != nil {
		p.listener.Close()
	}
	for c := range p.sessions {
		c.Close()
	}
}

// track registers a connection for teardown; returns false if closing.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.sessions[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.sessions, c)
}

// serveSwitch handles one switch: handshake, upstream dial, then splice.
// ctx cancellation closes both legs via Proxy.Close, which ends the
// splice goroutines through their failed reads.
func (p *Proxy) serveSwitch(ctx context.Context, raw net.Conn) {
	if !p.track(raw) {
		raw.Close()
		return
	}
	defer p.untrack(raw)
	defer raw.Close()

	swConn := NewConn(raw)
	sw, err := swConn.RecvHello()
	if err != nil {
		p.logf("handshake with %v failed: %v", raw.RemoteAddr(), err)
		return
	}

	d := net.Dialer{Timeout: dialTimeout}
	upRaw, err := d.DialContext(ctx, "tcp", p.controllerAddr)
	if err != nil {
		p.logf("switch %d: controller dial failed: %v", sw, err)
		return
	}
	if !p.track(upRaw) {
		upRaw.Close()
		return
	}
	defer p.untrack(upRaw)
	defer upRaw.Close()

	upConn := NewConn(upRaw)
	if err := upConn.SendHello(sw); err != nil {
		p.logf("switch %d: upstream hello failed: %v", sw, err)
		return
	}
	p.logf("switch %d connected via %v", sw, raw.RemoteAddr())

	// Join both splice legs before the deferred teardown runs: each leg
	// unblocks the other's parked Recv by closing the conn it writes to,
	// so Wait cannot hang on a half-closed session.
	var splice sync.WaitGroup
	splice.Add(2)
	// Controller → switch: intercept FlowMods.
	go func() {
		defer splice.Done()
		p.relay(sw, upConn, swConn, "controller", "switch", &p.toSwitch, func(m *Message) {
			if m.Type != TypeFlowMod || p.hooks.OnFlowMod == nil {
				return
			}
			if f, err := UnmarshalFlowMod(m.Body); err == nil {
				p.hooks.OnFlowMod(sw, f)
			} else {
				p.logf("switch %d: undecodable FlowMod: %v", sw, err)
			}
		})
	}()
	// Switch → controller: intercept BarrierReplies.
	go func() {
		defer splice.Done()
		p.relay(sw, swConn, upConn, "switch", "controller", &p.toController, func(m *Message) {
			if m.Type == TypeBarrierReply && p.hooks.OnBarrierReply != nil {
				p.hooks.OnBarrierReply(sw, m.Xid)
			}
		})
	}()
	splice.Wait()
}

// relay is one splice leg: it carries frames from src to dst until either
// side fails, then closes the other side so the opposite leg ends too.
// Each frame goes through intercept, then onto dst's pending output; the
// pending output is written in one write as soon as src holds no further
// whole frame. So intercept has run for a frame before any byte of it is
// written, a burst that arrived in one read leaves in one write, and
// nothing is held back while the next Recv may block.
func (p *Proxy) relay(sw topo.SwitchID, src, dst *Conn, from, to string, st *relayStats, intercept func(*Message)) {
	for {
		m, err := src.Recv()
		if err != nil {
			p.reportSpliceEnd(sw, from, err)
			dst.Close()
			return
		}
		intercept(m)
		st.frames.Add(1)
		flush := !src.buffered()
		if flush {
			st.writes.Add(1)
		}
		if err := dst.send(m, flush); err != nil {
			p.reportSpliceEnd(sw, to+"(write)", err)
			src.Close()
			return
		}
	}
}

func (p *Proxy) reportSpliceEnd(sw topo.SwitchID, side string, err error) {
	if err == io.EOF {
		p.logf("switch %d: %s closed", sw, side)
	} else {
		p.logf("switch %d: %s error: %v", sw, side, err)
	}
}

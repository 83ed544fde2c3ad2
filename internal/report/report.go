// Package report is the tag-report transport: switches emit reports as
// plain UDP datagrams (§5); the verification server collects them, parses
// them, and hands them to a verifier callback. The in-process simulation
// bypasses UDP; this package exists for the live deployment path
// (cmd/veridp-server, examples/liveproxy) and is exercised end-to-end over
// real sockets in its tests.
//
// The collector is one goroutine that owns the bound socket and loops
// receive→decode→verify. On Linux one recvmmsg(MSG_DONTWAIT) per wakeup
// takes up to defaultBatch queued datagrams into preallocated buffers; on
// an empty queue the reader parks in Go's netpoller. The whole batch goes
// to the verifier in one call, amortizing the snapshot pin, cache probes,
// and counter updates (see core.VerifyBatch), and the happy path
// allocates nothing per datagram. One reader bounds verification to one
// core: at ~2.5 µs a report that is roughly 400 000 reports/s. A
// deployment that needs more should give each further reader a socket of
// its own (SO_REUSEPORT); readers sharing one descriptor hand its read
// lock back and forth, and every hand-off costs a wakeup and often an
// empty receive.
package report

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync/atomic"

	"veridp/internal/netutil"
	"veridp/internal/packet"
)

// Sender ships tag reports to a collector over UDP. Safe for concurrent
// use: net.UDPConn writes are atomic per datagram.
type Sender struct {
	conn *net.UDPConn
}

// NewSender dials the collector at addr (host:port).
func NewSender(addr string) (*Sender, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("report: resolve %q: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("report: dial %q: %w", addr, err)
	}
	return &Sender{conn: conn}, nil
}

// HandleReport implements dataplane.ReportSink by marshalling onto the
// wire. Send errors are dropped: reports are best-effort telemetry, exactly
// as UDP encapsulation implies.
//
// lint:deadline conn=s.conn a UDP datagram write to a dialed socket never
// blocks on the peer; arming a deadline per report would put a syscall on
// the hot path for a send that completes or drops immediately.
func (s *Sender) HandleReport(r *packet.Report) {
	s.conn.Write(r.Marshal())
}

// Close releases the socket.
func (s *Sender) Close() error { return s.conn.Close() }

// maxDatagram is one receive buffer's size: 2 KiB comfortably holds the
// 34-byte report plus any padded or trailing junk a switch might send.
const maxDatagram = 2048

// defaultBatch is the most datagrams the collector receives and verifies
// per wakeup: large enough to amortize the per-wakeup costs under load,
// small enough that a batch's verdicts are not held back long. A receive
// takes whatever is queued, up to the batch, so an idle collector still
// verifies each report the moment it arrives.
const defaultBatch = 32

// Collector receives, parses, and dispatches report datagrams on one
// goroutine that owns one UDP socket.
type Collector struct {
	conn       *net.UDPConn // the bound socket; only Run receives on it
	newHandler func() func([]packet.Report)
	logs       *netutil.LogLimiter
	batch      []packet.Report // decoded reports, reused every wakeup
	recv       recvState       // platform batch-receive state

	received  atomic.Uint64
	malformed atomic.Uint64
}

// Option configures a Collector.
type Option struct{}

// WithWorkers is ignored: the collector has one reader.
//
// Deprecated: the benchmark harness's in-process mirror still passes it;
// it is deleted together with that mirror.
func WithWorkers(int) Option { return Option{} }

// NewCollector listens on addr (e.g. ":48879") and dispatches batches of
// parsed reports to a handler. logger may be nil. No Option has any
// effect.
//
// newHandler is a factory that Run calls once; the handler runs only on
// Run's goroutine, so its closure may own mutable state (a verdict cache,
// a scratch buffer) without any locking. The []packet.Report batch a
// handler receives is reused: it is valid only until the handler returns
// — copy any report to retain it.
func NewCollector(addr string, newHandler func() func([]packet.Report), logger *log.Logger, _ ...Option) (*Collector, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("report: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("report: listen %q: %w", addr, err)
	}
	c := &Collector{
		conn:       conn,
		newHandler: newHandler,
		logs:       netutil.NewLogLimiter(logger),
		batch:      make([]packet.Report, defaultBatch),
	}
	if err := c.recv.init(conn); err != nil {
		conn.Close()
		return nil, fmt.Errorf("report: receive setup: %w", err)
	}
	return c, nil
}

// Addr returns the bound address (useful with port 0).
func (c *Collector) Addr() net.Addr { return c.conn.LocalAddr() }

// Run is the receive→decode→dispatch loop; each received batch goes to
// the handler in one call. It blocks until ctx is cancelled or Close is
// called, and always returns a non-nil error: ctx.Err() after
// cancellation, net.ErrClosed after Close. A handler that is running
// when the socket closes finishes its batch first. Transient receive
// errors back off with a cap (reset on the next batch) so a wedged socket
// cannot hot-spin the reader. Run may be called once.
func (c *Collector) Run(ctx context.Context) error {
	// Cancellation is delivered by closing the socket, which fails the
	// parked receive.
	stop := context.AfterFunc(ctx, c.Close)
	defer stop()

	handle := c.newHandler()
	var bo netutil.Backoff
	for {
		k, err := c.fillBatch()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			c.logs.Printf("report: read: %v", err)
			if !bo.Sleep(ctx) {
				return ctx.Err()
			}
			continue
		}
		bo.Reset()
		if k > 0 {
			handle(c.batch[:k])
		}
	}
}

// fillBatch receives one batch — blocking until at least one datagram is
// queued — and decodes each datagram into the reused batch slice,
// counting and rate-limited-logging the malformed ones. The log line names
// the sender, so a switch sending garbage can be identified; its address
// is converted only on that cold branch. The received counter is updated
// once per batch. Returns the number of well-formed reports in c.batch.
//
// The socket is the fan-in point for every switch in the deployment: a
// read deadline here would tear down ingest for all of them during any
// quiet interval, and cancellation already reaches the parked receive
// through ctx closing the socket.
//
//lint:allocfree
func (c *Collector) fillBatch() (int, error) {
	n, err := c.recv.read()
	if err != nil {
		return 0, err
	}
	k := 0
	for i := range n {
		if err := packet.UnmarshalReportInto(c.recv.datagram(i), &c.batch[k]); err != nil {
			c.malformed.Add(1)
			c.logs.Printf("report: malformed datagram from %v: %v", c.recv.sender(i), err)
			continue
		}
		k++
	}
	if k > 0 {
		c.received.Add(uint64(k))
	}
	return k, nil
}

// Received returns the count of well-formed reports processed.
func (c *Collector) Received() uint64 { return c.received.Load() }

// Malformed returns the count of undecodable datagrams. Every malformed
// datagram is counted even when its log line is rate-limited away.
func (c *Collector) Malformed() uint64 { return c.malformed.Load() }

// RecvCalls returns the number of receive system calls made. With
// Received and Malformed it gives the datagrams each call took.
func (c *Collector) RecvCalls() uint64 { return c.recv.calls.Load() }

// RecvEmpty returns how many receive calls found the queue empty and
// parked the reader: wakeups spent on nothing. It stays 0 where receives
// block.
func (c *Collector) RecvEmpty() uint64 { return c.recv.empty.Load() }

// Close stops Run by closing the socket. It is safe to call more than once.
func (c *Collector) Close() { c.conn.Close() }

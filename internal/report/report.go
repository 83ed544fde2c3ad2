// Package report is the tag-report transport: switches emit reports as
// plain UDP datagrams (§5); the verification server collects them, parses
// them, and hands them to a verifier callback. The in-process simulation
// bypasses UDP; this package exists for the live deployment path
// (cmd/veridp-server, examples/liveproxy) and is exercised end-to-end over
// real sockets in its tests.
//
// The collector is a parallel pipeline: a configurable pool of workers
// (WithWorkers) each loops receive→decode→verify — so verification
// throughput scales with cores, the multi-threaded server §6.4 of the
// paper anticipates. Every worker receives on the one bound socket
// descriptor. On Linux one recvmmsg(MSG_DONTWAIT) per wakeup takes up to
// defaultBatch queued datagrams into the worker's preallocated buffers;
// on an empty queue the worker parks in Go's netpoller. The descriptor's
// read lock lets one worker at a time receive, so a datagram wakes one
// parked worker, not all of them, and the others verify their batches
// meanwhile. The worker hands the whole batch to its verifier in one call,
// amortizing the snapshot pin, cache probes, and counter updates (see
// core.VerifyBatch). The happy path allocates nothing per datagram: each
// worker receives into its own arrays and decodes into a reused batch
// slice.
package report

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"runtime"
	"sync"
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

// shard holds one worker's counters, so the datagram hot path touches no
// state shared between workers. The pad sizes a shard to one 64-byte
// cache line, keeping adjacent shards' counters apart (they are written on
// every wakeup).
type shard struct {
	received  atomic.Uint64
	malformed atomic.Uint64
	_         [48]byte
}

// worker is one goroutine's private state: its counter shard, its receive
// arrays, and the reused batch of decoded reports. Nothing here is shared
// between workers.
type worker struct {
	shard *shard
	batch []packet.Report // decoded reports, reused every wakeup
	recv  recvState       // platform batch-receive state
}

// Collector receives, parses, and dispatches report datagrams with a pool
// of worker goroutines sharing one UDP socket.
type Collector struct {
	conn       *net.UDPConn // the one bound socket every worker receives on
	newHandler func() func([]packet.Report)
	logs       *netutil.LogLimiter

	workers []worker // fixed after NewCollector
	shards  []shard  // one per worker; fixed after NewCollector
}

// Option configures a Collector.
type Option func(*collectorOptions)

type collectorOptions struct {
	workers int
}

// WithWorkers sets the number of read/decode/verify worker goroutines the
// collector runs (default runtime.GOMAXPROCS(0)). Values below 1 are
// clamped to 1.
func WithWorkers(n int) Option {
	return func(o *collectorOptions) { o.workers = n }
}

// defaultBatch is the most datagrams a worker receives and verifies per
// wakeup: large enough to amortize the per-wakeup costs under load, small
// enough that one worker cannot hoard a burst another core could verify.
// A receive takes whatever is queued, up to the batch, so an idle
// collector still verifies each report the moment it arrives — batching
// only kicks in when datagrams are queued faster than workers wake.
const defaultBatch = 32

// NewCollector listens on addr (e.g. ":48879") and dispatches batches of
// parsed reports to a handler. logger may be nil.
//
// newHandler is a factory: it is called once per worker, and each worker
// calls only its own handler — so the handler closure may own mutable
// single-goroutine state (a verdict cache, a scratch buffer) without any
// locking. The []packet.Report batch a handler receives is reused by the
// worker: it is valid only until the handler returns — copy any report to
// retain it.
func NewCollector(addr string, newHandler func() func([]packet.Report), logger *log.Logger, opts ...Option) (*Collector, error) {
	o := collectorOptions{workers: runtime.GOMAXPROCS(0)}
	for _, opt := range opts {
		opt(&o)
	}
	if o.workers < 1 {
		o.workers = 1
	}
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
		workers:    make([]worker, o.workers),
		shards:     make([]shard, o.workers),
	}
	for i := range c.workers {
		w := &c.workers[i]
		w.shard = &c.shards[i]
		w.batch = make([]packet.Report, defaultBatch)
		if err := w.recv.init(conn); err != nil {
			conn.Close()
			return nil, fmt.Errorf("report: receive setup: %w", err)
		}
	}
	return c, nil
}

// Addr returns the bound address (useful with port 0).
func (c *Collector) Addr() net.Addr { return c.conn.LocalAddr() }

// Workers returns the size of the worker pool.
func (c *Collector) Workers() int { return len(c.workers) }

// Run starts the worker pool and blocks until ctx is cancelled or Close
// is called, draining every worker before returning; it always returns a
// non-nil error: ctx.Err() after cancellation, net.ErrClosed after Close.
func (c *Collector) Run(ctx context.Context) error {
	// Cancellation is delivered by closing the socket, which fails the
	// parked receive and every worker queued behind it.
	stop := context.AfterFunc(ctx, c.Close)
	defer stop()

	errs := make([]error, len(c.workers))
	var wg sync.WaitGroup
	for i := range c.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.worker(ctx, &c.workers[i])
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return errors.New("report: collector stopped") // unreachable: workers only exit on error
}

// worker is one receive→decode→dispatch loop; each received batch goes to
// the worker's handler in one call. Transient receive errors back off with
// a cap (reset on the next batch) so a wedged socket cannot hot-spin a
// worker.
func (c *Collector) worker(ctx context.Context, w *worker) error {
	handle := c.newHandler() // one handler per worker: single-writer state
	var bo netutil.Backoff
	for {
		k, err := c.fillBatch(w)
		if err != nil {
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
			handle(w.batch[:k])
		}
	}
}

// fillBatch receives one batch — blocking until at least one datagram is
// queued — and decodes each datagram into the worker's reused batch slice,
// counting and rate-limited-logging the malformed ones. The log line names
// the sender, so a switch sending garbage can be identified; its address
// is converted only on that cold branch. The received counter is updated
// once per batch. Returns the number of well-formed reports in w.batch.
//
// The shared socket is the fan-in point for every switch in the
// deployment: a read deadline here would tear down ingest for all of them
// during any quiet interval, and cancellation already reaches the parked
// receive through ctx closing the socket.
//
//lint:allocfree
func (c *Collector) fillBatch(w *worker) (int, error) {
	n, err := w.recv.read()
	if err != nil {
		return 0, err
	}
	k := 0
	for i := range n {
		if err := packet.UnmarshalReportInto(w.recv.datagram(i), &w.batch[k]); err != nil {
			w.shard.malformed.Add(1)
			c.logs.Printf("report: malformed datagram from %v: %v", w.recv.sender(i), err)
			continue
		}
		k++
	}
	if k > 0 {
		w.shard.received.Add(uint64(k))
	}
	return k, nil
}

// Received returns the count of well-formed reports processed, folded
// across the worker shards.
func (c *Collector) Received() uint64 {
	var n uint64
	for i := range c.shards {
		n += c.shards[i].received.Load()
	}
	return n
}

// Malformed returns the count of undecodable datagrams, folded across the
// worker shards. Every malformed datagram is counted even when its log
// line is rate-limited away.
func (c *Collector) Malformed() uint64 {
	var n uint64
	for i := range c.shards {
		n += c.shards[i].malformed.Load()
	}
	return n
}

// Close stops Run by closing the socket. It is safe to call more than once.
func (c *Collector) Close() { c.conn.Close() }

// Package report is the tag-report transport: switches emit reports as
// plain UDP datagrams (§5); the verification server collects them, parses
// them, and hands them to a verifier callback. The in-process simulation
// bypasses UDP; this package exists for the live deployment path
// (cmd/veridp-server, examples/liveproxy) and is exercised end-to-end over
// real sockets in its tests.
//
// The collector is a parallel pipeline: a configurable pool of workers
// (WithWorkers) each loops read→decode→verify — so verification throughput
// scales with cores, the multi-threaded server §6.4 of the paper
// anticipates. Each worker owns a dup'd handle onto the shared socket
// (one file description, many descriptors): the kernel delivers each
// datagram to exactly one reader, and the private descriptor is what lets
// a worker follow its blocking read with non-blocking drains without
// contending on another worker's parked read. A worker wakes on one
// datagram, drains up to defaultBatch-1 more that are already queued, and
// hands the whole batch to its verifier in one call — amortizing the
// snapshot pin, cache probes, and counter updates (see core.VerifyBatch).
// The happy path allocates nothing per datagram: receive buffers come from
// a sync.Pool and each worker decodes into a preallocated batch slice.
package report

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/netip"
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

// bufPool recycles receive buffers across workers; 2 KiB comfortably holds
// the 34-byte report plus any padded or trailing junk a switch might send.
var bufPool = sync.Pool{New: func() any { return new([2048]byte) }}

// shard holds one worker's counters, so the datagram hot path touches no
// state shared between workers. The pad sizes a shard to one 64-byte
// cache line, keeping adjacent shards' counters apart (they are written on
// every wakeup).
type shard struct {
	received  atomic.Uint64
	malformed atomic.Uint64
	_         [48]byte
}

// worker is one goroutine's private state: its dup'd socket handle, its
// counter shard, and the reusable batch buffers. Nothing here is shared
// between workers; Close is the only cross-goroutine access (conn.Close
// is safe concurrently with reads).
type worker struct {
	conn  *net.UDPConn // dup'd descriptor onto the shared socket
	shard *shard
	batch []packet.Report // decoded reports, reused every wakeup
	drain drainState      // platform non-blocking receive state
}

// Collector receives, parses, and dispatches report datagrams with a pool
// of worker goroutines sharing one UDP socket.
type Collector struct {
	conn       *net.UDPConn // the bound socket (worker 0's handle)
	newHandler func() func([]packet.Report)
	logs       *netutil.LogLimiter

	workers []worker // fixed after NewCollector
	shards  []shard  // one per worker; fixed after NewCollector

	closeOnce sync.Once
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

// defaultBatch is the most datagrams a worker drains and verifies per
// wakeup: large enough to amortize the per-wakeup costs under load, small
// enough that one worker cannot hoard a burst another core could verify.
// The first read blocks; the rest are non-blocking, so an idle collector
// still verifies each report the moment it arrives — batching only kicks
// in when datagrams are queued faster than workers wake.
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
		if i == 0 {
			w.conn = conn
		} else {
			w.conn, err = dupUDPConn(conn)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("report: dup socket: %w", err)
			}
		}
		if err := w.drain.init(w.conn); err != nil {
			c.Close()
			return nil, fmt.Errorf("report: drain setup: %w", err)
		}
	}
	return c, nil
}

// dupUDPConn duplicates the listening socket: a new file descriptor onto
// the same file description, so every handle shares the bound port and the
// receive queue, but each worker parks its blocking read on its own
// descriptor.
func dupUDPConn(c *net.UDPConn) (*net.UDPConn, error) {
	f, err := c.File()
	if err != nil {
		return nil, err
	}
	defer f.Close() // FilePacketConn dups again; the intermediate can go
	pc, err := net.FilePacketConn(f)
	if err != nil {
		return nil, err
	}
	uc, ok := pc.(*net.UDPConn)
	if !ok {
		pc.Close()
		return nil, fmt.Errorf("dup is %T, not *net.UDPConn", pc)
	}
	return uc, nil
}

// Addr returns the bound address (useful with port 0).
func (c *Collector) Addr() net.Addr { return c.conn.LocalAddr() }

// Workers returns the size of the worker pool.
func (c *Collector) Workers() int { return len(c.workers) }

// Run starts the worker pool and blocks until ctx is cancelled or Close
// is called, draining every worker before returning; it always returns a
// non-nil error: ctx.Err() after cancellation, net.ErrClosed after Close.
func (c *Collector) Run(ctx context.Context) error {
	// Cancellation is delivered by closing every worker's socket handle,
	// which fails the parked reads.
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

// worker is one read→drain→decode→dispatch loop. The blocking read parks
// on the worker's private descriptor; once it delivers, fillBatch pulls
// whatever else is already queued (up to the batch budget) without
// blocking, and the whole batch goes to the worker's handler in one call.
// The loop is allocation-free per datagram: buffers are pooled and the
// batch slice is reused. Transient read errors back off with a cap (reset
// on the next datagram) so a wedged socket cannot hot-spin a worker.
func (c *Collector) worker(ctx context.Context, w *worker) error {
	handle := c.newHandler() // one handler per worker: single-writer state
	var bo netutil.Backoff
	for {
		bp := bufPool.Get().(*[2048]byte)
		// The shared socket is the fan-in point for every switch in the
		// deployment: a read deadline here would tear down ingest for all
		// of them during any quiet interval, and cancellation already
		// reaches the parked read through ctx closing the socket. (The
		// deadline checker does not follow a conn reached through a
		// parameter's field, so there is no finding here to suppress.)
		n, from, err := w.conn.ReadFromUDPAddrPort(bp[:])
		if err != nil {
			bufPool.Put(bp)
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
		k := c.fillBatch(w, bp, n, from)
		bufPool.Put(bp)
		if k > 0 {
			handle(w.batch[:k])
		}
	}
}

// fillBatch decodes the just-received datagram and then drains already-
// queued ones non-blockingly until the batch is full or the queue is
// empty, decoding each into the worker's reused batch slice. One receive
// buffer serves the whole batch (each datagram is decoded before the next
// receive overwrites it), and the received counter is updated once per
// batch, not once per datagram. Returns the number of well-formed reports
// in w.batch.
//
//lint:allocfree
func (c *Collector) fillBatch(w *worker, bp *[2048]byte, n int, from netip.AddrPort) int {
	k := 0
	for {
		if c.decodeOne(w.shard, bp[:n], from, &w.batch[k]) {
			k++
			if k == len(w.batch) {
				break
			}
		}
		var ok bool
		n, from, ok = w.drainOne(bp)
		if !ok {
			break
		}
	}
	if k > 0 {
		w.shard.received.Add(uint64(k))
	}
	return k
}

// decodeOne decodes one datagram into the batch slot, counting and
// rate-limited-logging the malformed ones — the cold branch the zero-alloc
// contract exempts. The log line names the sender, so a switch sending
// garbage can be identified.
//
//lint:allocfree
func (c *Collector) decodeOne(s *shard, b []byte, from netip.AddrPort, r *packet.Report) bool {
	if err := packet.UnmarshalReportInto(b, r); err != nil {
		s.malformed.Add(1)
		c.logs.Printf("report: malformed datagram from %v: %v", from, err)
		return false
	}
	return true
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

// Close stops Run by closing every worker's socket handle (they share one
// file description but each parks its read on its own descriptor).
func (c *Collector) Close() {
	c.closeOnce.Do(func() {
		for i := range c.workers {
			if w := &c.workers[i]; w.conn != nil && w.conn != c.conn {
				w.conn.Close()
			}
		}
		c.conn.Close()
	})
}

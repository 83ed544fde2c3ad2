package report

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"veridp/internal/bloom"
	"veridp/internal/header"
	"veridp/internal/packet"
	"veridp/internal/topo"
)

func sampleReport(i int) *packet.Report {
	return &packet.Report{
		Inport:  topo.PortKey{Switch: 1, Port: 1},
		Outport: topo.PortKey{Switch: 3, Port: 2},
		Header: header.Header{
			SrcIP: 0x0a000101, DstIP: 0x0a000201,
			Proto: header.ProtoTCP, SrcPort: uint16(1000 + i), DstPort: 22,
		},
		Tag:   bloom.Tag(0xbeef),
		MBits: 16,
	}
}

// perReport adapts a per-report callback to the collector's batch-handler
// factory, for tests that only care about individual reports.
func perReport(handler func(*packet.Report)) func() func([]packet.Report) {
	return func() func([]packet.Report) {
		return func(batch []packet.Report) {
			for i := range batch {
				handler(&batch[i])
			}
		}
	}
}

// collectorPair spins up a collector logging to logger (nil for none) and
// a sender dialed at it.
func collectorPair(t *testing.T, handler func(*packet.Report), logger *log.Logger) (*Collector, *Sender) {
	t.Helper()
	c, err := NewCollector("127.0.0.1:0", perReport(handler), logger)
	if err != nil {
		t.Fatal(err)
	}
	go c.Run(context.Background())
	s, err := NewSender(c.Addr().String())
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	return c, s
}

func TestSenderToCollector(t *testing.T) {
	var mu sync.Mutex
	var got []packet.Report
	c, s := collectorPair(t, func(r *packet.Report) {
		mu.Lock()
		got = append(got, *r) // the pointee is reused after the handler returns
		mu.Unlock()
	}, nil)
	defer c.Close()
	defer s.Close()

	const n = 20
	for i := 0; i < n; i++ {
		s.HandleReport(sampleReport(i))
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		cnt := len(got)
		mu.Unlock()
		if cnt == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d reports", cnt, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	seen := map[uint16]bool{}
	for i := range got {
		r := &got[i]
		if r.Tag != 0xbeef || r.Outport.Port != 2 {
			t.Fatalf("corrupted report %v", r)
		}
		seen[r.Header.SrcPort] = true
	}
	if len(seen) != n {
		t.Fatalf("distinct flows %d, want %d", len(seen), n)
	}
	if c.Received() != n {
		t.Fatalf("Received() = %d", c.Received())
	}
}

// syncBuffer is a log destination the test can read while the collector writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder // guarded by mu
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestCollectorIgnoresGarbage sends garbage and then a valid report: the
// collector stays alive, counts the garbage, and logs its sender.
func TestCollectorIgnoresGarbage(t *testing.T) {
	done := make(chan struct{}, 1)
	var logs syncBuffer
	c, s := collectorPair(t, func(*packet.Report) { done <- struct{}{} }, log.New(&logs, "", 0))
	defer c.Close()
	defer s.Close()

	// Raw garbage straight at the socket.
	s.conn.Write([]byte("not a report"))
	// Then a valid report; the collector must still be alive.
	s.HandleReport(sampleReport(0))
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("collector died on garbage")
	}
	// The garbage is counted and logged before the next batch reaches
	// the handler, but the log line may land after the handler ran.
	want := "malformed datagram from " + s.conn.LocalAddr().String() + ":"
	deadline := time.Now().Add(3 * time.Second)
	for c.Malformed() == 0 || !strings.Contains(logs.String(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("malformed count %d, log %q; want 1 and a line with %q", c.Malformed(), logs.String(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCollectorBatchesQueuedDatagrams queues a burst of two full batches
// in the socket buffer before the collector starts. No batch may
// exceed defaultBatch, and on Linux, where one recvmmsg takes everything
// queued up to the batch size, the burst arrives as exactly two full
// batches.
func TestCollectorBatchesQueuedDatagrams(t *testing.T) {
	const n = 2 * defaultBatch
	var mu sync.Mutex
	var batches []int
	total := 0
	c, err := NewCollector("127.0.0.1:0", func() func([]packet.Report) {
		return func(batch []packet.Report) {
			mu.Lock()
			batches = append(batches, len(batch))
			total += len(batch)
			mu.Unlock()
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := NewSender(c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < n; i++ {
		s.HandleReport(sampleReport(i))
	}
	time.Sleep(50 * time.Millisecond) // let the datagrams land in the queue
	go c.Run(context.Background())

	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		got := total
		mu.Unlock()
		if got == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d reports", got, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, b := range batches {
		if b > defaultBatch {
			t.Fatalf("batch of %d exceeds defaultBatch (%d)", b, defaultBatch)
		}
	}
	if runtime.GOOS == "linux" && !slices.Equal(batches, []int{defaultBatch, defaultBatch}) {
		t.Errorf("batch sizes %v, want two full batches of %d", batches, defaultBatch)
	}
}

// TestCollectorCloseStopsRun closes a running collector whose reader is
// parked in the netpoller; Close must release it. WithWorkers is still
// accepted and ignored, so every requested worker count must behave the
// same.
func TestCollectorCloseStopsRun(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c, err := NewCollector("127.0.0.1:0", perReport(func(*packet.Report) {}), nil, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			errCh := make(chan error, 1)
			go func() { errCh <- c.Run(context.Background()) }()
			time.Sleep(20 * time.Millisecond)
			c.Close()
			select {
			case err := <-errCh:
				if err == nil {
					t.Fatal("Run returned nil after Close")
				}
			case <-time.After(3 * time.Second):
				t.Fatal("Run did not stop after Close")
			}
			c.Close() // idempotent
		})
	}
}

// TestCollectorKeepsReadingAfterSlowHandler blocks the one reader inside
// its handler while more than a batch of datagrams queues up. Once the
// handler returns, every queued datagram must be received within a
// second: the reader must not park waiting for a readiness edge that
// fired while it was busy. A Close while the handler is blocked must make
// Run return once the handler does. The factory is called once.
func TestCollectorKeepsReadingAfterSlowHandler(t *testing.T) {
	type gate struct{ blocked, release chan struct{} }
	gates := make(chan gate, 1) // a queued gate blocks the next batch
	var got atomic.Int64
	var factories atomic.Int32
	c, err := NewCollector("127.0.0.1:0", func() func([]packet.Report) {
		factories.Add(1)
		return func(batch []packet.Report) {
			got.Add(int64(len(batch)))
			select {
			case g := <-gates:
				close(g.blocked)
				<-g.release
			default:
			}
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- c.Run(context.Background()) }()
	s, err := NewSender(c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// block sends one report and waits until the handler holds it.
	block := func() gate {
		t.Helper()
		g := gate{make(chan struct{}), make(chan struct{})}
		gates <- g
		s.HandleReport(sampleReport(0))
		select {
		case <-g.blocked:
		case <-time.After(3 * time.Second):
			t.Fatal("handler never saw the blocking report")
		}
		return g
	}

	g := block()
	const n = 2 * defaultBatch
	for i := range n {
		s.HandleReport(sampleReport(i))
	}
	time.Sleep(50 * time.Millisecond) // let the datagrams land in the queue
	close(g.release)
	deadline := time.Now().Add(time.Second)
	for got.Load() != n+1 {
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d reports 1s after the handler returned", got.Load(), n+1)
		}
		time.Sleep(time.Millisecond)
	}

	g = block()
	c.Close()
	close(g.release)
	select {
	case err := <-errCh:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Run returned %v after Close, want net.ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Run did not return after Close during a blocked handler")
	}
	if f := factories.Load(); f != 1 {
		t.Errorf("handler factory called %d times, want 1", f)
	}
}

func TestSenderBadAddress(t *testing.T) {
	if _, err := NewSender("this is not an address"); err == nil {
		t.Fatal("garbage address accepted")
	}
	if _, err := NewCollector("this is not an address", nil, nil); err == nil {
		t.Fatal("garbage address accepted")
	}
}

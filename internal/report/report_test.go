package report

import (
	"context"
	"runtime"
	"sync"
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

// collectorPair spins up a collector and a sender dialed at it.
func collectorPair(t *testing.T, handler func(*packet.Report)) (*Collector, *Sender) {
	t.Helper()
	c, err := NewCollector("127.0.0.1:0", perReport(handler), nil)
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
	})
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

func TestCollectorIgnoresGarbage(t *testing.T) {
	done := make(chan struct{}, 1)
	c, s := collectorPair(t, func(*packet.Report) { done <- struct{}{} })
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
	// Another worker may deliver the good report before the one holding
	// the garbage has counted it.
	deadline := time.Now().Add(3 * time.Second)
	for c.Malformed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("malformed counter not incremented")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCollectorBatchesQueuedDatagrams queues a burst of two full batches
// in the socket buffer before the (single) worker starts, so the first
// wakeup must drain a multi-datagram batch on platforms with the
// non-blocking drain path, and no batch may exceed defaultBatch.
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
	}, nil, WithWorkers(1))
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
	max := 0
	for _, b := range batches {
		if b > defaultBatch {
			t.Fatalf("batch of %d exceeds defaultBatch (%d)", b, defaultBatch)
		}
		if b > max {
			max = b
		}
	}
	if runtime.GOOS == "linux" && max < 2 {
		t.Errorf("every batch had 1 report; non-blocking drain never coalesced (batch sizes %v)", batches)
	}
}

func TestCollectorCloseStopsRun(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0", perReport(func(*packet.Report) {}), nil)
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
}

func TestSenderBadAddress(t *testing.T) {
	if _, err := NewSender("this is not an address"); err == nil {
		t.Fatal("garbage address accepted")
	}
	if _, err := NewCollector("this is not an address", nil, nil); err == nil {
		t.Fatal("garbage address accepted")
	}
}

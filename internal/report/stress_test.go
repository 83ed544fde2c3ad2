// Concurrent stress: N goroutines fire tag reports at a UDP collector
// wired into a live Monitor while reader goroutines concurrently consult
// the path table and the collector's counters. The test's assertions are
// drop-tolerant (UDP may shed datagrams under load); its real teeth are
// `go test -race ./internal/report` — it only passes under the race
// detector when the locking in Collector and Monitor is correct.

package report_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"veridp"
	"veridp/internal/report"
)

// figure5Monitor builds the paper's running example with enough rules
// for the H1→H3 SSH flow to verify, and returns canonical good reports
// captured from in-process injections.
func figure5Monitor(t *testing.T) (*veridp.Monitor, []*veridp.Report) {
	t.Helper()
	net := veridp.Figure5()
	em := veridp.NewEmulation(net, veridp.DefaultTagParams)
	s1 := net.SwitchByName("S1").ID
	s2 := net.SwitchByName("S2").ID
	s3 := net.SwitchByName("S3").ID
	rules := []struct {
		sw veridp.SwitchID
		r  veridp.Rule
	}{
		{s1, veridp.Rule{Priority: 20, Match: veridp.Match{DstPrefix: veridp.Prefix{IP: veridp.MustParseIP("10.0.2.0"), Len: 24}, HasDst: true, DstPort: 22}, Action: veridp.ActOutput, OutPort: 3}},
		{s2, veridp.Rule{Priority: 10, Match: veridp.Match{InPort: 1}, Action: veridp.ActOutput, OutPort: 3}},
		{s2, veridp.Rule{Priority: 10, Match: veridp.Match{InPort: 3}, Action: veridp.ActOutput, OutPort: 2}},
		{s3, veridp.Rule{Priority: 20, Match: veridp.Match{DstPrefix: veridp.Prefix{IP: veridp.MustParseIP("10.0.2.0"), Len: 24}}, Action: veridp.ActOutput, OutPort: 2}},
	}
	for _, ins := range rules {
		if _, err := em.Controller.InstallRule(ins.sw, ins.r); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var captured []*veridp.Report
	mon := em.NewMonitor(veridp.MonitorConfig{
		OnVerified: func(r *veridp.Report) {
			mu.Lock()
			captured = append(captured, r)
			mu.Unlock()
		},
	})
	for port := uint16(22); port < 26; port++ {
		h := veridp.Header{SrcIP: veridp.MustParseIP("10.0.1.1"), DstIP: veridp.MustParseIP("10.0.2.1"), Proto: 6, DstPort: port}
		if port != 22 {
			h.DstPort = 22
			h.SrcPort = port
		}
		if _, err := em.Fabric.InjectFromHost("H1", h); err != nil {
			t.Fatal(err)
		}
	}
	if len(captured) == 0 {
		t.Fatal("no verified reports captured from in-process injection")
	}
	return mon, captured
}

func TestCollectorConcurrentStress(t *testing.T) {
	mon, good := figure5Monitor(t)
	verified0, violated0 := mon.Stats()

	collector, err := report.NewCollector("127.0.0.1:0", mon.BatchHandler, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()
	go collector.Run(context.Background())

	const (
		senders = 8
		perSend = 150
	)
	// A corrupted twin of a good report: same path, wrong tag — it must
	// take the violation/localization path through the table.
	bad := *good[0]
	bad.Tag ^= 0x2a

	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := report.NewSender(collector.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			for j := 0; j < perSend; j++ {
				if (i+j)%5 == 0 {
					s.HandleReport(&bad)
				} else {
					s.HandleReport(good[j%len(good)])
				}
			}
		}(i)
	}

	// Readers: verification consults the path table (through the
	// monitor's lock) and the collector's counters while reports land.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ok, reason := mon.Verify(good[0]); !ok {
					t.Errorf("canonical report stopped verifying: %s", reason)
					return
				}
				mon.Stats()
				collector.Received()
				collector.Malformed()
				time.Sleep(time.Millisecond)
			}
		}()
	}

	wg.Wait()
	// Quiesce: wait until the collector stops draining its socket.
	deadline := time.Now().Add(5 * time.Second)
	last := collector.Received()
	for {
		time.Sleep(100 * time.Millisecond)
		now := collector.Received()
		if now == last || time.Now().After(deadline) {
			break
		}
		last = now
	}
	close(stop)
	readers.Wait()

	received := collector.Received()
	if received == 0 {
		t.Fatal("no reports survived the loopback")
	}
	if m := collector.Malformed(); m != 0 {
		t.Errorf("Malformed() = %d for well-formed reports", m)
	}
	verified, violated := mon.Stats()
	if handled := (verified - verified0) + (violated - violated0); handled != received {
		t.Fatalf("monitor handled %d reports, collector received %d", handled, received)
	}
	if violated == violated0 {
		t.Error("corrupted reports produced no violations")
	}
}

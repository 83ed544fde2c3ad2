// End-to-end shutdown test for the live Figure 4 deployment: controller
// server, interception proxy, per-switch agents, and the UDP collector
// are wired over real sockets, traffic flows, and then the root context
// is cancelled mid-stream. The contract under test is the one the
// ctxprop/deadline/retrybound checkers enforce statically: cancellation
// reaches every goroutine (none leak), every Serve/Run returns, and the
// collector drains — its received counter equals exactly the number of
// reports the monitor handled.
package veridp_test

import (
	"context"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"veridp"
	"veridp/internal/controller"
	"veridp/internal/dataplane"
	"veridp/internal/flowtable"
	"veridp/internal/openflow"
	"veridp/internal/packet"
	"veridp/internal/report"
	"veridp/internal/topo"
)

func TestShutdownLeaksNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	net_ := veridp.Figure5()

	// Everything long-lived is accounted for in wg: the test fails if any
	// Serve/Run does not return after cancel.
	var wg sync.WaitGroup
	serve := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f() // after cancel every return value is some flavor of ctx.Err
		}()
	}

	ctrlSrv := controller.NewServer()
	ctrlL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serve(func() error { return ctrlSrv.Serve(ctx, ctrlL) })

	logical := make(map[topo.SwitchID]*flowtable.SwitchConfig)
	for _, sw := range net_.Switches() {
		logical[sw.ID] = flowtable.NewSwitchConfig(sw.Ports())
	}
	var handled atomic.Uint64
	mon := veridp.NewMonitor(net_, logical, veridp.MonitorConfig{
		OnVerified:  func(*veridp.Report) { handled.Add(1) },
		OnViolation: func(veridp.Violation) { handled.Add(1) },
	})

	collector, err := report.NewCollector("127.0.0.1:0", mon.BatchHandler, nil)
	if err != nil {
		t.Fatal(err)
	}
	serve(func() error { return collector.Run(ctx) })

	proxy := openflow.NewProxy(ctrlL.Addr().String(), mon.ProxyHooks(logical), nil)
	proxyL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serve(func() error { return proxy.Serve(ctx, proxyL) })

	sender, err := report.NewSender(collector.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	fabric := dataplane.NewFabric(net_)
	var fabricMu sync.Mutex
	var ids []topo.SwitchID
	for _, sw := range net_.Switches() {
		ids = append(ids, sw.ID)
		agent := &dataplane.Agent{Fabric: fabric, ID: sw.ID, Mu: &fabricMu, Sink: sender}
		conn, err := net.Dial("tcp", proxyL.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		serve(func() error { return agent.Run(ctx, conn) })
	}
	if err := ctrlSrv.WaitForSwitches(ids); err != nil {
		t.Fatal(err)
	}

	// Figure 5's SSH policy, installed over the live southbound channel.
	ctrl := controller.New(net_, ctrlSrv)
	s1 := net_.SwitchByName("S1").ID
	s2 := net_.SwitchByName("S2").ID
	s3 := net_.SwitchByName("S3").ID
	subnetS := veridp.Prefix{IP: veridp.MustParseIP("10.0.2.0"), Len: 24}
	for _, in := range []struct {
		sw topo.SwitchID
		r  veridp.Rule
	}{
		{s1, veridp.Rule{Priority: 20, Match: veridp.Match{DstPrefix: subnetS, HasDst: true, DstPort: 22}, Action: veridp.ActOutput, OutPort: 3}},
		{s2, veridp.Rule{Priority: 10, Match: veridp.Match{InPort: 1}, Action: veridp.ActOutput, OutPort: 3}},
		{s3, veridp.Rule{Priority: 20, Match: veridp.Match{DstPrefix: subnetS}, Action: veridp.ActOutput, OutPort: 2}},
	} {
		if _, err := ctrl.InstallRule(in.sw, in.r); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}

	// Traffic pump: PacketOut probes until the context dies or the
	// control channel is torn down under it — both are expected ends.
	ssh := veridp.Header{SrcIP: veridp.MustParseIP("10.0.1.1"), DstIP: veridp.MustParseIP("10.0.2.1"), Proto: 6, SrcPort: 40001, DstPort: 22}
	frame := packet.BuildData(ssh, 64, []byte("probe"))
	serve(func() error {
		for ctx.Err() == nil {
			if err := ctrlSrv.PacketOut(s1, 1, frame); err != nil {
				return err
			}
			time.Sleep(time.Millisecond)
		}
		return ctx.Err()
	})

	// Let real traffic flow, then cancel mid-stream.
	waitFor(t, "first verified reports", func() bool { return handled.Load() >= 5 })
	cancel()

	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not stop every Serve/Run within 10s")
	}

	// The collector has drained: its received counter must equal the
	// number of handler invocations — a report is either fully processed
	// or never dispatched, nothing is half-counted.
	if got, want := collector.Received(), handled.Load(); got != want {
		t.Errorf("collector.Received() = %d, monitor handled %d; a batch was counted but not handled", got, want)
	}
	if m := collector.Malformed(); m != 0 {
		t.Errorf("collector.Malformed() = %d, want 0", m)
	}

	// Close the endpoints (idempotent after cancel) and require the
	// goroutine count to settle back to the pre-test baseline.
	collector.Close()
	proxy.Close()
	ctrlSrv.Close()
	waitFor(t, "goroutines to drain", func() bool { return runtime.NumGoroutine() <= baseline })
}

// waitFor polls cond for up to 10s; on timeout it fails the test with a
// goroutine dump so the leak (or stall) is identifiable.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("timed out waiting for %s\n%s", what, buf[:runtime.Stack(buf, true)])
}

// Live deployment: the complete Figure 4 architecture over real sockets.
//
//	switch agents ──TCP──▶ VeriDP proxy ──TCP──▶ controller server
//	switch agents ──UDP tag reports──▶ VeriDP collector
//
// The controller compiles Figure 5's policy and pushes FlowMods through
// the proxy; the VeriDP server intercepts them to keep its path table
// current. Test packets are injected with PacketOut; exit switches send
// UDP tag reports; the collector verifies each one. Then a switch "bug"
// corrupts a physical rule out-of-band and the next packet is flagged.
//
//	go run ./examples/liveproxy
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
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

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context) error {
	logger := log.New(os.Stderr, "", 0)
	net_ := veridp.Figure5()

	// ---- controller server -------------------------------------------
	ctrlSrv := controller.NewServer()
	ctrlL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go ctrlSrv.Serve(ctx, ctrlL)
	defer ctrlSrv.Close()

	// ---- VeriDP server: monitor + proxy + UDP collector ---------------
	logical := make(map[topo.SwitchID]*flowtable.SwitchConfig)
	for _, sw := range net_.Switches() {
		logical[sw.ID] = flowtable.NewSwitchConfig(sw.Ports())
	}
	// chan: buffered 64 — verdict callbacks fire on the collector's reader; the buffer absorbs bursts between the demo's prints
	verdicts := make(chan string, 64)
	mon := veridp.NewMonitor(net_, logical, veridp.MonitorConfig{
		OnVerified: func(r *veridp.Report) {
			verdicts <- fmt.Sprintf("ok        %v→%v %v", r.Inport, r.Outport, r.Header)
		},
		OnViolation: func(v veridp.Violation) {
			blame := "unlocalized"
			if v.Localized {
				blame = "faulty switch " + net_.Switch(v.FaultySwitch).Name
			}
			verdicts <- fmt.Sprintf("VIOLATION %s — %s", v.Reason, blame)
		},
	})

	collector, err := report.NewCollector("127.0.0.1:0", mon.BatchHandler, logger)
	if err != nil {
		return err
	}
	defer collector.Close()
	go collector.Run(ctx)

	proxy := openflow.NewProxy(ctrlL.Addr().String(), mon.ProxyHooks(logical), nil)
	proxyL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go proxy.Serve(ctx, proxyL)
	defer proxy.Close()

	// ---- data plane: fabric + one agent per switch, reports over UDP --
	sender, err := report.NewSender(collector.Addr().String())
	if err != nil {
		return err
	}
	defer sender.Close()

	fabric := dataplane.NewFabric(net_)
	var fabricMu sync.Mutex
	for _, sw := range net_.Switches() {
		agent := &dataplane.Agent{Fabric: fabric, ID: sw.ID, Mu: &fabricMu, Sink: sender}
		conn, err := net.Dial("tcp", proxyL.Addr().String())
		if err != nil {
			return err
		}
		go agent.Run(ctx, conn)
	}

	// ---- control plane work over the live channel ---------------------
	var ids []topo.SwitchID
	for _, sw := range net_.Switches() {
		ids = append(ids, sw.ID)
	}
	if err := ctrlSrv.WaitForSwitches(ids); err != nil {
		return err
	}
	fmt.Printf("all %d switches connected through the proxy\n", len(ids))

	ctrl := controller.New(net_, ctrlSrv)
	s1 := net_.SwitchByName("S1").ID
	s2 := net_.SwitchByName("S2").ID
	s3 := net_.SwitchByName("S3").ID
	subnetS := veridp.Prefix{IP: veridp.MustParseIP("10.0.2.0"), Len: 24}
	sshRule := uint64(0)
	installs := []struct {
		sw topo.SwitchID
		r  veridp.Rule
	}{
		{s1, veridp.Rule{Priority: 20, Match: veridp.Match{DstPrefix: subnetS, HasDst: true, DstPort: 22}, Action: veridp.ActOutput, OutPort: 3}},
		{s1, veridp.Rule{Priority: 10, Match: veridp.Match{DstPrefix: subnetS}, Action: veridp.ActOutput, OutPort: 4}},
		{s2, veridp.Rule{Priority: 10, Match: veridp.Match{InPort: 1}, Action: veridp.ActOutput, OutPort: 3}},
		{s2, veridp.Rule{Priority: 10, Match: veridp.Match{InPort: 3}, Action: veridp.ActOutput, OutPort: 2}},
		{s3, veridp.Rule{Priority: 20, Match: veridp.Match{DstPrefix: subnetS}, Action: veridp.ActOutput, OutPort: 2}},
	}
	for i, in := range installs {
		id, err := ctrl.InstallRule(in.sw, in.r)
		if err != nil {
			return err
		}
		if i == 0 {
			sshRule = id
		}
	}
	if err := ctrl.Barrier(); err != nil {
		return err
	}
	fmt.Println("policy installed over the live southbound channel (path table tracked by interception)")

	// ---- inject a test packet via PacketOut ---------------------------
	ssh := veridp.Header{SrcIP: veridp.MustParseIP("10.0.1.1"), DstIP: veridp.MustParseIP("10.0.2.1"), Proto: 6, SrcPort: 40001, DstPort: 22}
	frame := packet.BuildData(ssh, 64, []byte("probe"))
	if err := ctrlSrv.PacketOut(s1, 1, frame); err != nil {
		return err
	}
	fmt.Println("1) healthy SSH probe:", <-await(verdicts))

	// ---- a switch bug corrupts the physical rule out-of-band ----------
	fabricMu.Lock()
	err = fabric.Switch(s1).Config.Table.Modify(sshRule, func(r *veridp.Rule) { r.OutPort = 4 })
	fabricMu.Unlock()
	if err != nil {
		return err
	}
	if err := ctrlSrv.PacketOut(s1, 1, frame); err != nil {
		return err
	}
	fmt.Println("2) after the silent rule corruption:", <-await(verdicts))
	return nil
}

// await wraps the verdict channel with a timeout so a lost UDP datagram
// cannot hang the example.
func await(ch chan string) chan string {
	// chan: buffered 1 — the helper sends exactly once and exits without waiting on the printer
	out := make(chan string, 1)
	go func() {
		select {
		case v := <-ch:
			out <- v
		case <-time.After(5 * time.Second):
			out <- "timed out waiting for a verdict"
		}
	}()
	return out
}

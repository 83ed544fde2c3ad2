package main

// Direct timed calls: each layer the mirror's wrappers cannot isolate is
// called here on its own, on the same datagram streams the server was sent.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"veridp/internal/controller"
	"veridp/internal/core"
	"veridp/internal/dataplane"
	"veridp/internal/openflow"
	"veridp/internal/packet"
	"veridp/internal/report"
)

const (
	ledgerReports = 1 << 16 // stream prefix each per-report layer is timed on
	ledgerBuilds  = 5
	verifyBatch   = 32 // the collector's default batch
	collectOnly   = 700 * time.Millisecond
	spliceSamples = 100
)

func timeLayers(ctx context.Context, cfg config, rs *ruleSet, ts *trafficSet, tr *tracer) (map[string]metric, error) {
	out := make(map[string]metric)

	// packet: decode the stream.
	reports := make([]packet.Report, ledgerReports)
	var decodeErr error
	took := tr.timed("packet.unmarshal", 0, func() {
		for i := range reports {
			d := &ts.dgrams[ts.streams[0][i%len(ts.streams[0])]]
			if err := packet.UnmarshalReportInto(d.wire[:], &reports[i]); err != nil {
				decodeErr = err
				return
			}
		}
	})
	if decodeErr != nil {
		return nil, decodeErr
	}
	out["packet.unmarshal_ns_per_report"] = metric{perReport(took, len(reports)), "ns"}

	// core: build from scratch, publish, then verify against the snapshot.
	var tables []*core.PathTable
	var buildMs []float64
	for i := 0; i < ledgerBuilds; i++ {
		var pt *core.PathTable
		buildMs = append(buildMs, ms(tr.timed("core.build", 0, func() { pt = rs.buildTable(rs.refFabric) })))
		tables = append(tables, pt)
	}
	out["core.build_ms"] = metric{median(buildMs), "ms"}
	out["core.bdd_nodes"] = metric{float64(tables[0].Space.T.Size()), "count"}
	h := core.NewHandle(tables[0])
	var publishMs []float64
	for _, pt := range tables[1:] {
		publishMs = append(publishMs, ms(tr.timed("core.publish", 0, func() {
			h.Swap(func(*core.PathTable) *core.PathTable { return pt })
		})))
	}
	out["core.publish_ms"] = metric{median(publishMs), "ms"}

	snap := h.Current()
	verdicts := make([]core.Verdict, verifyBatch)
	took = tr.timed("core.verify_walk", 0, func() {
		for i := 0; i+verifyBatch <= len(reports); i += verifyBatch {
			snap.VerifyBatch(nil, reports[i:i+verifyBatch], verdicts)
		}
	})
	out["core.verify_walk_ns_per_report"] = metric{perReport(took, len(reports)), "ns"}
	cache := core.NewVerdictCache(0)
	snap.VerifyBatch(cache, reports[:verifyBatch], verdicts) // fill
	took = tr.timed("core.verify_hit", 0, func() {
		for i := 0; i < len(reports)/verifyBatch; i++ {
			snap.VerifyBatch(cache, reports[:verifyBatch], verdicts)
		}
	})
	out["core.verify_hit_ns_per_report"] = metric{perReport(took, len(reports)), "ns"}

	// core: localize every distinct faulted report once. Workloads without
	// faults of their own borrow fault_mix's, so the layer has a figure on
	// every workload.
	faulted := ts
	if !cfg.w.faults {
		fw, _ := findWorkload("fault_mix")
		var err error
		if faulted, err = buildTraffic(rs, rs.refFabric, new(sync.Mutex), fw, cfg.seed, 1, 4096); err != nil {
			return nil, err
		}
	}
	var r packet.Report
	n := 0
	pt := h.Table()
	took = tr.timed("core.localize", 0, func() {
		for i := faulted.nHealth; i < len(faulted.dgrams); i++ {
			if d := &faulted.dgrams[i]; d.violation && packet.UnmarshalReportInto(d.wire[:], &r) == nil {
				pt.Localize(&r)
				n++
			}
		}
	})
	out["core.localize_us_per_violation"] = metric{perReport(took, n) / 1000, "us"}

	var err error
	if out["report.collect_only_rps"], err = collectOnlyRate(ctx, cfg, ts); err != nil {
		return nil, err
	}
	if out["openflow.splice_rtt_us_p50"], err = spliceRTT(ctx, rs, tr); err != nil {
		return nil, err
	}
	return out, nil
}

func perReport(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }

// collectOnlyRate saturates a collector whose handler does nothing: the
// ingest ceiling that socket, receive and decode set for capacity_rps.
func collectOnlyRate(ctx context.Context, cfg config, ts *trafficSet) (metric, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	c, err := report.NewCollector("127.0.0.1:0", func() func([]packet.Report) { return func([]packet.Report) {} }, nil)
	if err != nil {
		return metric{}, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = c.Run(ctx) // returns once ctx is cancelled
	}()
	defer func() {
		cancel()
		<-done
	}()
	g, err := newGenerator(c.Addr().String(), ts, cfg.senders(), nil)
	if err != nil {
		return metric{}, err
	}
	defer g.close()
	before := c.Received()
	_, elapsed, err := g.run(ctx, saturateRate, collectOnly)
	if err != nil {
		return metric{}, err
	}
	return metric{float64(c.Received()-before) / elapsed.Seconds(), "1/s"}, nil
}

// spliceRTT times FlowMod→BarrierReply through a proxy with no hooks: what
// the splice itself costs, the floor under flowmod_rtt_ms_p50.
func spliceRTT(ctx context.Context, rs *ruleSet, tr *tracer) (metric, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ctrl := controller.NewServer()
	ctrl.Timeout = flowModTimeout
	ctrlL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return metric{}, err
	}
	proxyL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ctrlL.Close()
		return metric{}, err
	}
	proxy := openflow.NewProxy(ctrlL.Addr().String(), openflow.ProxyHooks{}, nil)
	sw := rs.switches[0]
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", proxyL.Addr().String())
	if err != nil {
		ctrlL.Close()
		proxyL.Close()
		return metric{}, err
	}
	agent := &dataplane.Agent{Fabric: dataplane.NewFabric(rs.net), ID: sw, Mu: new(sync.Mutex)}
	var wg sync.WaitGroup
	for _, serve := range []func(){
		func() { _ = ctrl.Serve(ctx, ctrlL) }, // each returns once ctx is cancelled
		func() { _ = proxy.Serve(ctx, proxyL) },
		func() { _ = agent.Run(ctx, conn) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			serve()
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
	}()
	if err := ctrl.WaitForSwitches(rs.switches[:1]); err != nil {
		return metric{}, err
	}
	m := rs.mods[sw][0]
	var rtts []float64
	for i := 0; i < spliceSamples; i++ {
		f := m
		if i%2 == 1 {
			f = &openflow.FlowMod{Command: openflow.FlowDelete, Switch: sw, RuleID: m.RuleID}
		}
		var err error
		took := tr.timed("openflow.splice", 0, func() {
			if err = ctrl.Apply(f); err == nil {
				err = ctrl.Barrier(sw)
			}
		})
		if err != nil {
			return metric{}, fmt.Errorf("splice round trip %d: %w", i, err)
		}
		rtts = append(rtts, us(took))
	}
	return metric{median(rtts), "us"}, nil
}

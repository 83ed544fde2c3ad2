// Command veridp-server is the standalone VeriDP verification server of
// Figure 4: it splices the OpenFlow channel between switches and the
// controller (keeping its path table in step with intercepted FlowMods)
// and verifies the tag reports it collects over UDP. Verified reports are
// only counted (serve -metrics to read the counters); each violation is
// logged to stderr with its blamed switch, through a token bucket so a
// faulty data plane cannot flood the log.
//
//	veridp-server -topo figure5 -listen :6653 -controller 127.0.0.1:6654 -reports :48879
//
// Switches dial -listen instead of the controller; the server forwards
// everything upstream unchanged. SIGINT/SIGTERM trigger a graceful
// shutdown: the proxy stops accepting, spliced sessions and in-flight
// report datagrams drain, and the process exits within -shutdown-timeout.
// With -table-cache the rules learned from intercepted FlowMods are saved
// on that graceful exit, and the next start rebuilds its path table from
// them (warm start): the controller does not re-send FlowMods when a switch
// reconnects. A missing or damaged cache, or one saved on another
// topology, is ignored and the server starts cold.
// See examples/liveproxy for a complete in-process deployment wired over
// real sockets.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"veridp"
	"veridp/internal/bloom"
	"veridp/internal/flowtable"
	"veridp/internal/netutil"
	"veridp/internal/openflow"
	"veridp/internal/packet"
	"veridp/internal/report"
	"veridp/internal/topo"
)

var (
	topoName    = flag.String("topo", "figure5", "topology: fattree4|fattree6|stanford|internet2|figure5|linear")
	listenAddr  = flag.String("listen", ":6653", "address switches dial (OpenFlow proxy)")
	ctrlAddr    = flag.String("controller", "127.0.0.1:6654", "upstream controller address")
	reportAddr  = flag.String("reports", fmt.Sprintf(":%d", packet.ReportPort), "UDP address for tag reports")
	metricsAddr = flag.String("metrics", "", "HTTP address for Prometheus metrics (empty disables)")
	mbits       = flag.Int("mbits", 16, "Bloom tag size in bits")
	workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "report collector worker goroutines")
	tableCache  = flag.String("table-cache", "", "learned-rule cache: the table is rebuilt from it on start (warm start) and it is rewritten on graceful shutdown")
	shutdownTO  = flag.Duration("shutdown-timeout", 5*time.Second, "grace period for draining on SIGINT/SIGTERM")
)

func buildTopo(name string) (*topo.Network, error) {
	switch name {
	case "fattree4":
		return topo.FatTree(4), nil
	case "fattree6":
		return topo.FatTree(6), nil
	case "stanford":
		return topo.Stanford(3), nil
	case "internet2":
		return topo.Internet2(2), nil
	case "figure5":
		return topo.Figure5(), nil
	case "linear":
		return topo.Linear(3, 1), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", name)
	}
}

func main() {
	flag.Parse()
	logger := log.New(os.Stderr, "veridp-server: ", log.LstdFlags)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, logger); err != nil && !errors.Is(err, context.Canceled) {
		logger.Fatal(err)
	}
}

func run(ctx context.Context, logger *log.Logger) error {
	params := bloom.Params{MBits: *mbits}
	if err := params.Validate(); err != nil {
		return err
	}
	net_, err := buildTopo(*topoName)
	if err != nil {
		return err
	}

	violations := netutil.NewLogLimiter(logger)
	cfg := veridp.MonitorConfig{
		Params: params,
		OnViolation: func(v veridp.Violation) {
			sw := "unlocalized"
			if v.Localized {
				sw = "switch " + net_.Switch(v.FaultySwitch).Name
			}
			violations.Printf("VIOLATION %-22s %v → %s", v.Reason, v.Report, sw)
		},
	}

	// Warm start: rebuild from the rules a previous run learned, or start
	// cold (every switch known, no rule installed) when there are none.
	var logical map[topo.SwitchID]*flowtable.SwitchConfig
	if *tableCache != "" {
		b, err := os.ReadFile(*tableCache)
		if err == nil {
			logical, err = veridp.LoadRules(b, net_)
		}
		if err != nil {
			logger.Printf("table cache %s unusable (%v); starting cold", *tableCache, err)
		} else {
			logger.Printf("warm start: %d rules from %s", countRules(logical), *tableCache)
		}
	}
	if logical == nil {
		logical = make(map[topo.SwitchID]*flowtable.SwitchConfig, net_.NumSwitches())
		for _, sw := range net_.Switches() {
			logical[sw.ID] = flowtable.NewSwitchConfig(sw.Ports())
		}
	}
	mon := veridp.NewMonitor(net_, logical, cfg)

	// Tag-report collector: each worker gets its own batch handler (and
	// with it a private verdict cache).
	collector, err := report.NewCollector(*reportAddr, mon.BatchHandler, logger, report.WithWorkers(*workers))
	if err != nil {
		return err
	}
	defer collector.Close()
	// chan: buffered 1 — the Run goroutine hands off its exit status without rendezvous, so it can never leak
	collectorDone := make(chan error, 1)
	go func() {
		// Run drains its workers before returning, so a receive from
		// collectorDone is the "in-flight datagrams finished" signal.
		collectorDone <- collector.Run(ctx)
	}()
	logger.Printf("collecting tag reports on %v (%d workers)", collector.Addr(), collector.Workers())

	// OpenFlow interception proxy, served below once the metrics are up.
	proxy := openflow.NewProxy(*ctrlAddr, mon.ProxyHooks(logical), logger)

	// Metrics endpoint: the Monitor's families, the proxy's relay
	// counters, then the collector's ingest counters. Reading the
	// collector after the Monitor keeps received ≥ verified + violated on
	// every scrape, since a batch is counted before it is verified.
	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			mon.ServeHTTP(w, r)
			proxy.WriteMetrics(w)
			fmt.Fprintf(w, "# TYPE veridp_reports_received_total counter\nveridp_reports_received_total %d\n"+
				"# TYPE veridp_reports_malformed_total counter\nveridp_reports_malformed_total %d\n",
				collector.Received(), collector.Malformed())
		})
		msrv := &http.Server{Handler: mux}
		logger.Printf("serving metrics on %v/metrics", ml.Addr())
		go func() {
			if err := msrv.Serve(ml); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("metrics server stopped: %v", err)
			}
		}()
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), *shutdownTO)
			defer cancel()
			msrv.Shutdown(sctx)
		}()
	}

	l, err := net.Listen("tcp", *listenAddr)
	if err != nil {
		return err
	}
	logger.Printf("proxying OpenFlow on %v → controller %s", l.Addr(), *ctrlAddr)
	err = proxy.Serve(ctx, l)

	// Serve has drained its spliced sessions; give the collector the
	// remaining grace period to drain in-flight datagrams.
	if ctx.Err() != nil {
		logger.Printf("shutting down (grace %v)", *shutdownTO)
	}
	select {
	case cerr := <-collectorDone:
		if ctx.Err() == nil && cerr != nil {
			logger.Printf("collector stopped: %v", cerr)
		}
	case <-time.After(*shutdownTO):
		logger.Printf("collector did not drain within %v", *shutdownTO)
	}

	// Graceful shutdown persists the learned rules so the next start is warm.
	if *tableCache != "" && ctx.Err() != nil {
		if serr := saveCache(*tableCache, mon); serr != nil {
			logger.Printf("table cache %s not saved: %v", *tableCache, serr)
		} else {
			logger.Printf("saved rules to %s", *tableCache)
		}
	}
	return err
}

// countRules totals the rules across every switch's configuration.
func countRules(cfgs map[topo.SwitchID]*flowtable.SwitchConfig) int {
	n := 0
	for _, cfg := range cfgs {
		n += cfg.Table.Len()
	}
	return n
}

// saveCache writes the monitor's rules to a temp file, syncs it, and
// renames it into place, so a crash mid-write can never leave a truncated
// cache behind.
func saveCache(path string, mon *veridp.Monitor) error {
	b, err := mon.SaveRules()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
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

// logSink is a log writer the test can read while the server writes it;
// ready is closed once the server logs that its proxy is listening.
type logSink struct {
	mu    sync.Mutex
	buf   bytes.Buffer // guarded by mu
	ready chan struct{}
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bytes.Contains(p, []byte("proxying OpenFlow")) {
		close(s.ready)
	}
	return s.buf.Write(p)
}

func (s *logSink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// start runs the server on loopback with the default test flags, and the
// overrides in flags, until its proxy is listening. stop cancels it as
// SIGINT would and returns what it logged.
func start(t *testing.T, flags map[string]string) (logs *logSink, stop func() string) {
	t.Helper()
	set := map[string]string{
		"topo": "figure5", "mbits": "16", "table-cache": "",
		"listen": "127.0.0.1:0", "reports": "127.0.0.1:0", "controller": "127.0.0.1:1",
		"metrics": "", "workers": "1", "shutdown-timeout": "2s",
	}
	for name, v := range flags {
		set[name] = v
	}
	for name, v := range set {
		if err := flag.Set(name, v); err != nil {
			t.Fatal(err)
		}
	}
	logs = &logSink{ready: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	// chan: buffered 1 — run's result is handed off without rendezvous
	done := make(chan error, 1)
	go func() { done <- run(ctx, log.New(logs, "", 0)) }()
	select {
	case <-logs.ready:
	case err := <-done:
		cancel()
		t.Fatalf("server exited before serving: %v\n%s", err, logs.String())
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatalf("server not serving after 10s:\n%s", logs.String())
	}
	return logs, func() string {
		cancel()
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("run: %v\n%s", err, logs.String())
		}
		return logs.String()
	}
}

// serve starts the server under the given -topo, -mbits and -table-cache,
// stops it at once, and returns what it logged.
func serve(t *testing.T, topoName string, mbits int, cache string) string {
	t.Helper()
	_, stop := start(t, map[string]string{"topo": topoName, "mbits": strconv.Itoa(mbits), "table-cache": cache})
	return stop()
}

// routed returns the logical rules of a controller that routed every host
// of n.
func routed(t *testing.T, n *topo.Network) map[topo.SwitchID]*flowtable.SwitchConfig {
	t.Helper()
	ctrl := controller.New(n, &dataplane.FabricInstaller{Fabric: dataplane.NewFabric(n)})
	if err := ctrl.RouteAllHosts(); err != nil {
		t.Fatal(err)
	}
	return ctrl.Logical()
}

// writeCache saves the rule cache of a monitor over logical to path.
func writeCache(t *testing.T, path string, n *topo.Network, logical map[topo.SwitchID]*flowtable.SwitchConfig) {
	t.Helper()
	b, err := veridp.NewMonitor(n, logical, veridp.MonitorConfig{}).SaveRules()
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// readCache decodes the rule cache at path for n.
func readCache(t *testing.T, path string, n *topo.Network) map[topo.SwitchID]*flowtable.SwitchConfig {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := veridp.LoadRules(b, n)
	if err != nil {
		t.Fatal(err)
	}
	return cfgs
}

// TestTableCacheWarmStart drives -table-cache through run: a cache written
// for the server's topology warm-starts it, and the cache the server
// rewrites on shutdown decodes to the same rules; a cache from another
// topology falls back to a cold start; and a cache saved under -mbits 16
// warm-starts a server under -mbits 32, since tags are rebuilt, not cached.
func TestTableCacheWarmStart(t *testing.T) {
	dir := t.TempDir()
	fig5 := filepath.Join(dir, "figure5.cache")
	want := routed(t, topo.Figure5())
	writeCache(t, fig5, topo.Figure5(), want)
	rules := 0
	for _, cfg := range want {
		rules += cfg.Table.Len()
	}
	warm := "warm start: " + strconv.Itoa(rules) + " rules"

	logs := serve(t, "figure5", 16, fig5)
	if !strings.Contains(logs, warm) || !strings.Contains(logs, "saved rules to") {
		t.Fatalf("figure5 cache on -topo figure5: want %q and a save, got:\n%s", warm, logs)
	}
	got := readCache(t, fig5, topo.Figure5())
	for id, cfg := range want {
		if !reflect.DeepEqual(got[id].Table.Rules(), cfg.Table.Rules()) {
			t.Fatalf("rewritten cache: switch %d's rules differ", id)
		}
	}

	ft4 := filepath.Join(dir, "fattree4.cache")
	writeCache(t, ft4, topo.FatTree(4), routed(t, topo.FatTree(4)))
	logs = serve(t, "figure5", 16, ft4)
	if strings.Contains(logs, "warm start") || !strings.Contains(logs, "saved on another topology); starting cold") {
		t.Fatalf("fattree4 cache on -topo figure5: want a cold start, got:\n%s", logs)
	}

	logs = serve(t, "figure5", 32, fig5)
	if !strings.Contains(logs, warm) {
		t.Fatalf("-mbits 16 cache under -mbits 32: want %q, got:\n%s", warm, logs)
	}
}

// logged returns the first whitespace-delimited word after prefix in the
// server's log.
func logged(t *testing.T, logs *logSink, prefix string) string {
	t.Helper()
	_, rest, ok := strings.Cut(logs.String(), prefix)
	if !ok {
		t.Fatalf("no %q in the log:\n%s", prefix, logs.String())
	}
	return strings.Fields(rest)[0]
}

// TestMetricsIngestCounters sends the collector one good report and one
// garbage datagram, then reads both ingest counters from /metrics.
func TestMetricsIngestCounters(t *testing.T) {
	logs, stop := start(t, map[string]string{"metrics": "127.0.0.1:0"})
	defer stop()
	url := "http://" + logged(t, logs, "serving metrics on ")
	reports := logged(t, logs, "collecting tag reports on ")
	s, err := report.NewSender(reports)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.HandleReport(&packet.Report{Inport: topo.PortKey{Switch: 1, Port: 1}, Outport: topo.PortKey{Switch: 3, Port: 2}, MBits: 16})
	garbage, err := net.Dial("udp", reports)
	if err != nil {
		t.Fatal(err)
	}
	defer garbage.Close()
	garbage.Write([]byte("not a report"))

	var got map[string]uint64
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		got = scrape(t, url)
		if got["veridp_reports_received_total"] == 1 && got["veridp_reports_malformed_total"] == 1 {
			return
		}
	}
	t.Fatalf("received %d, malformed %d; want 1 and 1",
		got["veridp_reports_received_total"], got["veridp_reports_malformed_total"])
}

// TestMetricsProxyRelay drives one FlowMod and one Barrier from a
// controller through the server's proxy to a switch agent, and reads the
// relay's frame and write counters, and its accept retries, from /metrics.
func TestMetricsProxyRelay(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	ctrlL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := controller.NewServer()
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = ctrl.Serve(ctx, ctrlL) // returns once ctx is cancelled
	}()

	logs, stop := start(t, map[string]string{"metrics": "127.0.0.1:0", "controller": ctrlL.Addr().String()})
	defer stop()
	url := "http://" + logged(t, logs, "serving metrics on ")
	raw, err := net.Dial("tcp", logged(t, logs, "proxying OpenFlow on "))
	if err != nil {
		t.Fatal(err)
	}
	n := topo.Figure5()
	sw := n.Switches()[0].ID
	agent := &dataplane.Agent{Fabric: dataplane.NewFabric(n), ID: sw, Mu: &sync.Mutex{}}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = agent.Run(ctx, raw) // ends when ctx is cancelled
	}()
	if err := ctrl.WaitForSwitches([]topo.SwitchID{sw}); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Apply(&openflow.FlowMod{Command: openflow.FlowAdd, Switch: sw, RuleID: 1,
		Rule: flowtable.Rule{Priority: 1, Action: flowtable.ActDrop}}); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Barrier(sw); err != nil {
		t.Fatal(err)
	}

	// The BarrierReply reaches the controller before the relay counts the
	// write that carried it, so poll until the counters settle.
	const (
		framesDown = `veridp_openflow_frames_total{dir="to_switch"}`
		framesUp   = `veridp_openflow_frames_total{dir="to_controller"}`
		writesDown = `veridp_openflow_writes_total{dir="to_switch"}`
		writesUp   = `veridp_openflow_writes_total{dir="to_controller"}`
		retries    = "veridp_proxy_accept_retries_total"
	)
	var got map[string]uint64
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		got = scrape(t, url)
		if got[framesDown] == 2 && got[framesUp] == 1 && got[writesUp] == 1 &&
			got[writesDown] >= 1 && got[writesDown] <= 2 {
			if _, ok := got[retries]; !ok {
				t.Fatalf("no %s on /metrics", retries)
			}
			return
		}
	}
	t.Fatalf("frames %d down %d up, writes %d down %d up; want 2 and 1 frames, 1–2 and 1 writes",
		got[framesDown], got[framesUp], got[writesDown], got[writesUp])
}

// scrape reads url and parses every sample line as `name value`, failing
// on any value that is not an unsigned integer.
func scrape(t *testing.T, url string) map[string]uint64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]uint64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		n, err := strconv.ParseUint(line[sp+1:], 10, 64)
		if sp < 0 || err != nil {
			t.Fatalf("/metrics line %q: not `name <uint>`", line)
		}
		out[line[:sp]] = n
	}
	return out
}

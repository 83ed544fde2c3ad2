package veridp

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"veridp/internal/core"
	"veridp/internal/header"
	"veridp/internal/openflow"
)

func TestMetricsEndpoint(t *testing.T) {
	em, ids := buildFigure5(t)
	mon := em.NewMonitor(MonitorConfig{})

	// One healthy flow, then a faulted one.
	h := Header{SrcIP: MustParseIP("10.0.1.1"), DstIP: MustParseIP("10.0.2.1"), Proto: 6, DstPort: 22}
	if _, err := em.Fabric.InjectFromHost("H1", h); err != nil {
		t.Fatal(err)
	}
	s1 := em.Net.SwitchByName("S1").ID
	if err := em.Fabric.Switch(s1).Config.Table.Modify(ids["ssh"], func(r *Rule) { r.OutPort = 4 }); err != nil {
		t.Fatal(err)
	}
	if _, err := em.Fabric.InjectFromHost("H1", h); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(mon)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"veridp_reports_verified_total 1",
		"veridp_reports_violated_total 1",
		`veridp_violations_total{reason="tag-mismatch"} 1`,
		`veridp_blamed_total{switch="S1"} 1`,
		"veridp_path_table_pairs",
		"veridp_path_table_paths",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
}

// TestMetricsFlowModPaths: FT(4)'s routes and an in-port rule arrive
// through the proxy hooks and count as deltas (or as the rebuilds that
// bound the header space), never as re-runs; a rewriting rule counts one
// re-run. The exposition reports the Handle's counters.
func TestMetricsFlowModPaths(t *testing.T) {
	r := newProxyRig(t, FatTree(4))
	mods := routeAll(t, r.net)
	for _, f := range mods {
		r.send(f)
	}
	edge := mods[0].Switch
	r.send(&openflow.FlowMod{Command: openflow.FlowAdd, Switch: edge, RuleID: 1 << 40, Rule: Rule{
		Priority: 100, Match: Match{InPort: 1, DstPrefix: Prefix{IP: MustParseIP("10.0.0.0"), Len: 8}}, Action: ActDrop,
	}})
	scrape := func() (delta, rerun, rebuild uint64) {
		t.Helper()
		var b strings.Builder
		if err := r.mon.WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			path string
			n    *uint64
		}{{"delta", &delta}, {"rerun", &rerun}, {"rebuild", &rebuild}} {
			series := fmt.Sprintf("veridp_flowmods_total{path=%q} ", c.path)
			_, after, ok := strings.Cut(b.String(), series)
			if !ok {
				t.Fatalf("metrics missing %q:\n%s", series, b.String())
			}
			fmt.Sscan(after, c.n)
		}
		return delta, rerun, rebuild
	}
	delta, rerun, rebuild := scrape()
	if rerun != 0 || delta == 0 || delta+rebuild != uint64(r.sent) {
		t.Fatalf("%d FlowMods without rewrites: delta %d, rerun %d, rebuild %d", r.sent, delta, rerun, rebuild)
	}
	r.send(&openflow.FlowMod{Command: openflow.FlowAdd, Switch: edge, RuleID: 1<<40 + 1, Rule: Rule{
		Priority: 100, Match: Match{DstPrefix: Prefix{IP: MustParseIP("203.0.113.80"), Len: 32}}, Action: ActOutput, OutPort: 1,
		Rewrite: &header.Rewrite{SetDstIP: true, DstIP: MustParseIP("10.0.0.2")},
	}})
	d2, rerun2, rebuild2 := scrape()
	if d2 != delta || rerun2+rebuild2 != rebuild+1 || rerun2 > 1 {
		t.Fatalf("a rewriting rule: delta %d→%d, rerun %d→%d, rebuild %d→%d", delta, d2, rerun, rerun2, rebuild, rebuild2)
	}
	if p := r.mon.Handle().FlowModPaths(); p != (core.FlowModPaths{Delta: d2, Rerun: rerun2, Rebuild: rebuild2}) {
		t.Fatalf("exposition %d/%d/%d, Handle %+v", d2, rerun2, rebuild2, p)
	}
}

// TestMetricsConcurrentWithVerification pins the WriteMetrics contract
// under -race: the exposition write happens after the monitor lock is
// released, so scraping and verification interleave freely instead of a
// slow writer stalling HandleReport.
func TestMetricsConcurrentWithVerification(t *testing.T) {
	em, _ := buildFigure5(t)
	mon := em.NewMonitor(MonitorConfig{})
	h := Header{SrcIP: MustParseIP("10.0.1.1"), DstIP: MustParseIP("10.0.2.1"), Proto: 6, DstPort: 80}
	res, err := em.Fabric.InjectFromHost("H1", h)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Reports[0]
	base, _ := mon.Stats() // the injection above already reported once

	const workers, iters = 4, 50
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				mon.HandleReport(rep)
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				if err := mon.WriteMetrics(io.Discard); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if verified, violated := mon.Stats(); verified != base+workers*iters || violated != 0 {
		t.Fatalf("stats = (%d, %d), want (%d, 0)", verified, violated, base+workers*iters)
	}
}

// TestMetricsScrapeTakesNoUpdateLock holds the path table's update lock, as
// a rebuild in ProxyHooks or a localization does, and scrapes meanwhile:
// the gauges come from the published snapshot, so the scrape must return
// before the lock is released.
func TestMetricsScrapeTakesNoUpdateLock(t *testing.T) {
	em, _ := buildFigure5(t)
	mon := em.NewMonitor(MonitorConfig{})

	locked, release, scraped := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mon.Handle().Inspect(func(*core.PathTable) {
			close(locked)
			<-release
		})
	}()
	<-locked
	go func() { scraped <- mon.WriteMetrics(io.Discard) }()
	select {
	case err := <-scraped:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("WriteMetrics waited for the update lock")
	}
	close(release)
	wg.Wait()
}

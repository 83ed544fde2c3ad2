package main

// The traced run's in-process mirror: veridp-server's run() wiring
// (veridp.NewMonitor, Monitor.BatchHandler, Monitor.ProxyHooks,
// report.NewCollector, openflow.NewProxy) re-assembled here with a
// span-recording wrapper at each boundary the wiring exposes, and fed the
// same inputs over loopback. It re-states run(); if run() changes, this
// must follow (README, "Mirror drift").

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"veridp"
	"veridp/internal/bloom"
	"veridp/internal/flowtable"
	"veridp/internal/openflow"
	"veridp/internal/packet"
	"veridp/internal/report"
	"veridp/internal/topo"
)

const spansPerName = 2000 // spans kept per name; totals cover every call

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was made; Parent is a span ID, 0 for none.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	workload string
	origin   time.Time

	mu      sync.Mutex
	spans   []span         // guarded by mu
	perName map[string]int // guarded by mu
	nextID  int            // guarded by mu
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now(), perName: make(map[string]int)}
}

// add records a span and returns its ID (0 once the name's quota is full).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.perName[name] >= spansPerName {
		return 0
	}
	t.perName[name]++
	t.nextID++
	t.spans = append(t.spans, span{
		ID: t.nextID, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
		Workload: t.workload,
	})
	return t.nextID
}

// timed runs fn inside a span and returns how long it took.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, parent, start, end)
	return end.Sub(start)
}

func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), b, 0o644)
}

// Mirror phases: which accumulators a handler call feeds.
const (
	phaseIdle int32 = iota
	phasePaced
	phaseSaturate
)

// mirror is the re-assembled server plus the accumulators its wrappers
// feed. Spans sample; the accumulators see every call.
type mirror struct {
	tr        *tracer
	mon       *veridp.Monitor
	collector *report.Collector
	proxyAddr string
	devnull   *os.File
	phase     atomic.Int32

	handleNs   atomic.Int64 // paced: time inside the batch handler
	handled    atomic.Int64 // paced: reports those calls carried
	batches    atomic.Int64 // saturate: handler calls
	batched    atomic.Int64 // saturate: reports those calls carried
	gapNs      atomic.Int64 // saturate: worker time between handler calls
	callbackNs atomic.Int64 // paced: time inside OnVerified/OnViolation
	callbacks  atomic.Int64

	installed atomic.Bool // set once the rule set is in: hooks from here on run at full table size
	mu        sync.Mutex
	hookMs    []float64 // guarded by mu

	wg sync.WaitGroup
}

// startMirror assembles the wiring exactly as veridp-server's run() does
// with its default flags, every boundary wrapped.
func startMirror(ctx context.Context, rs *ruleSet, ctrlAddr string, tr *tracer) (*mirror, error) {
	m := &mirror{tr: tr}
	var err error
	if m.devnull, err = os.OpenFile(os.DevNull, os.O_WRONLY, 0); err != nil {
		return nil, err
	}
	net_ := rs.net
	cfg := veridp.MonitorConfig{
		Params: bloom.Params{MBits: 16},
		OnViolation: func(v veridp.Violation) {
			start := time.Now()
			sw := "unlocalized"
			if v.Localized {
				sw = fmt.Sprintf("switch %s", net_.Switch(v.FaultySwitch).Name)
			}
			fmt.Fprintf(m.devnull, "VIOLATION %-22s %v → %s\n", v.Reason, v.Report, sw)
			m.callback(start)
		},
		OnVerified: func(r *veridp.Report) {
			start := time.Now()
			fmt.Fprintf(m.devnull, "ok        %v\n", r)
			m.callback(start)
		},
	}
	logical := make(map[topo.SwitchID]*flowtable.SwitchConfig, net_.NumSwitches())
	for _, sw := range net_.Switches() {
		logical[sw.ID] = flowtable.NewSwitchConfig(sw.Ports())
	}
	m.mon = veridp.NewMonitor(net_, logical, cfg)

	m.collector, err = report.NewCollector("127.0.0.1:0", m.tracedHandler, nil, report.WithWorkers(runtime.GOMAXPROCS(0)))
	if err != nil {
		m.devnull.Close()
		return nil, err
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		_ = m.collector.Run(ctx) // returns once ctx is cancelled
	}()

	hooks := m.mon.ProxyHooks(logical)
	traced := openflow.ProxyHooks{OnFlowMod: func(sw topo.SwitchID, f *openflow.FlowMod) {
		took := tr.timed("veridp.flowmod_hook", 0, func() { hooks.OnFlowMod(sw, f) })
		if m.installed.Load() {
			m.mu.Lock()
			m.hookMs = append(m.hookMs, ms(took))
			m.mu.Unlock()
		}
	}}
	proxy := openflow.NewProxy(ctrlAddr, traced, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.collector.Close()
		m.devnull.Close()
		return nil, err
	}
	m.proxyAddr = l.Addr().String()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		_ = proxy.Serve(ctx, l) // returns once ctx is cancelled
	}()
	return m, nil
}

// wait joins the collector and the proxy after their context is cancelled.
func (m *mirror) wait() {
	m.wg.Wait()
	m.devnull.Close()
}

func (m *mirror) callback(start time.Time) {
	if m.phase.Load() == phasePaced {
		m.callbackNs.Add(int64(time.Since(start)))
		m.callbacks.Add(1)
	}
}

// tracedHandler is the per-worker factory report.NewCollector asks for:
// the Monitor's own batch handler between two clock reads. The time a
// worker spends outside the handler while the socket never runs dry is
// what receive and decode cost it.
func (m *mirror) tracedHandler() func([]packet.Report) {
	inner := m.mon.BatchHandler()
	now := time.Now()
	worker := m.tr.add("report.worker", 0, now, now)
	var lastEnd time.Time
	return func(batch []packet.Report) {
		start := time.Now()
		phase := m.phase.Load()
		if phase == phaseSaturate && !lastEnd.IsZero() {
			m.gapNs.Add(int64(start.Sub(lastEnd)))
			m.batched.Add(int64(len(batch)))
			m.batches.Add(1)
			m.tr.add("report.recv_decode", worker, lastEnd, start)
		}
		inner(batch)
		end := time.Now()
		if phase == phasePaced {
			m.handleNs.Add(int64(end.Sub(start)))
			m.handled.Add(int64(len(batch)))
		}
		if phase != phaseIdle {
			m.tr.add("veridp.handle", worker, start, end)
		}
		lastEnd = end
		if phase != phaseSaturate {
			lastEnd = time.Time{} // the worker may idle next: the gap would be waiting, not work
		}
	}
}

// runMirror stands the mirror up, installs the rule set through its proxy,
// replays the workload's paced and saturate phases against it, and then
// times each layer directly on the same streams.
func runMirror(ctx context.Context, cfg config, rs *ruleSet, real *serverRun, tr *tracer) (map[string]metric, error) {
	ctx, cancel := context.WithCancel(ctx)
	dep, err := newDeployment(ctx, rs)
	if err != nil {
		cancel()
		return nil, err
	}
	m, err := startMirror(ctx, rs, dep.ctrlAddr, tr)
	if err != nil {
		cancel()
		dep.close()
		return nil, err
	}
	defer func() {
		cancel()
		dep.close()
		m.wait()
	}()

	var installErr error
	tr.timed("phase.install", 0, func() {
		if installErr = dep.connect(ctx, m.proxyAddr); installErr == nil {
			installErr = dep.install()
		}
	})
	if installErr != nil {
		return nil, fmt.Errorf("mirror set-up: %w", installErr)
	}
	m.installed.Store(true)
	ts, err := buildTraffic(rs, dep.fabric, &dep.mu, cfg.w, cfg.seed, cfg.senders(), cfg.population())
	if err != nil {
		return nil, err
	}
	churn, probe := newChurn(dep, ts)
	gen, err := newGenerator(m.collector.Addr().String(), ts, cfg.senders(), probe)
	if err != nil {
		return nil, err
	}
	defer gen.close()

	// One traffic phase against the mirror, with the workload's churn
	// beside it; returns the verdicts it produced and the wall time.
	phase := func(name string, id int32, rate float64, dur time.Duration) (uint64, time.Duration, error) {
		var churnDone chan struct{}
		cctx, stopChurn := context.WithCancel(ctx)
		defer stopChurn()
		if churn != nil {
			churnDone = make(chan struct{})
			go func() {
				defer close(churnDone)
				churn.run(cctx)
			}()
		}
		v0, x0 := m.mon.Stats()
		m.phase.Store(id)
		var elapsed time.Duration
		var err error
		tr.timed("phase."+name, 0, func() { _, elapsed, err = gen.run(ctx, rate, dur) })
		m.phase.Store(phaseIdle)
		stopChurn()
		if churnDone != nil {
			<-churnDone
		}
		v1, x1 := m.mon.Stats()
		return (v1 + x1) - (v0 + x0), elapsed, err
	}

	pl := cfg.plan()
	if _, _, err := phase("warmup", phaseIdle, pacedRate, warmUp); err != nil {
		return nil, err
	}
	if _, _, err := phase("paced", phasePaced, pacedRate, pl.paced); err != nil {
		return nil, err
	}
	satVerdicts, satElapsed, err := phase("saturate", phaseSaturate, saturateRate, pl.saturate)
	if err != nil {
		return nil, err
	}
	mirrorCapacity := float64(satVerdicts) / satElapsed.Seconds()
	if pl.tail > 0 {
		// The same quiet tail of FlowMods the real server got.
		if tail := quietTail(ctx, dep, pl.tail); tail.failed > 0 {
			return nil, fmt.Errorf("mirror: %d tail FlowMods had no BarrierReply", tail.failed)
		}
	}

	handle := ratio(float64(m.handleNs.Load()), float64(m.handled.Load()))
	callback := ratio(float64(m.callbackNs.Load()), float64(m.callbacks.Load()))
	recvDecode := ratio(float64(m.gapNs.Load()), float64(m.batched.Load()))
	m.mu.Lock()
	hookMs := append([]float64(nil), m.hookMs...)
	m.mu.Unlock()

	out := map[string]metric{
		"report.recv_decode_ns_per_report": {recvDecode, "ns"},
		"report.batch_size_mean":           {ratio(float64(m.batched.Load()), float64(m.batches.Load())), "count"},
		"veridp.handle_ns_per_report":      {handle, "ns"},
		"veridp.flowmod_hook_ms_p50":       {quantile(hookMs, 0.50), "ms"},
		"veridp.flowmod_hook_ms_p95":       {quantile(hookMs, 0.95), "ms"},
		"server.callback_ns_per_report":    {callback, "ns"},
		"gen.trace_overhead_frac":          {1 - ratio(mirrorCapacity, real.capacity()), "ratio"},
	}
	direct, err := timeLayers(ctx, cfg, rs, ts, tr)
	if err != nil {
		return nil, err
	}
	for k, v := range direct {
		out[k] = v
	}

	// tally is what the handler does besides verifying and calling back;
	// verify is the hit and walk costs weighted by the real hit ratio.
	hit := real.hitRatio()
	verify := hit*out["core.verify_hit_ns_per_report"].Value + (1-hit)*out["core.verify_walk_ns_per_report"].Value
	out["veridp.tally_ns_per_report"] = metric{handle - verify - callback, "ns"}
	out["gen.ledger_unexplained_frac"] = metric{1 - ratio(recvDecode+handle, 1000*real.cpuPerReport()), "ratio"}
	return out, nil
}

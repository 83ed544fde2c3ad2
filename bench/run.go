package main

// One benchmark run against the real server: set-up, warm-up, the paced
// open-loop phase, the saturate phase, the raw-loopback control, and the
// output checks that decide whether the run counts.

import (
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	pacedRate     = 40000                 // reports/s, open loop
	saturateRate  = 300000                // reports/s offered; the server takes what it can
	churnEvery    = 50 * time.Millisecond // zipf_churn: 20 FlowMods/s
	tailEvery     = 20 * time.Millisecond // quiet tail: 50 FlowMods/s
	warmUp        = 500 * time.Millisecond
	rawControl    = 500 * time.Millisecond
	drainTimeout  = 3 * time.Second
	windowPadding = 50 * time.Millisecond // a probe made this long before a FlowMod may still be queued when the table flips
	setupRepeats  = 2
	maxLateFrac   = 0.05 // sender guard; the whole VM pauses for 30–600 ms now and then
)

type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	bin     string
}

func (c config) topo() string {
	if c.quick {
		return "fattree4"
	}
	return "fattree6"
}

func (c config) population() int {
	if c.quick {
		return 8192
	}
	return populationSize
}

// plan is how one leg of a run spends the measured seconds. An untraced
// run gives them all to the paced phase, which its metrics come from; a
// traced run halves them between the real server and the mirror, and each
// leg also saturates and times FlowMods in a quiet tail.
type plan struct{ paced, saturate, tail time.Duration }

func (c config) plan() plan {
	s := time.Duration(c.seconds * float64(time.Second))
	if !c.trace {
		return plan{paced: s}
	}
	p := plan{paced: s * 2 / 10, saturate: s * 2 / 10, tail: s / 10}
	if c.w.churn {
		p.tail = 0 // its FlowMods run beside the traffic
	}
	return p
}

func (c config) senders() int { return min(runtime.GOMAXPROCS(0), 4) }

// checks collects every breached output check; one breach fails the run.
type checks struct {
	failures []string
	failed   uint64 // operations that did not end as the reference says
}

func (c *checks) fail(ops uint64, format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
	c.failed += ops
}

// phaseObs is everything observed about one traffic phase.
type phaseObs struct {
	name     string
	count    *phaseCount
	elapsed  time.Duration
	before   *scrape
	after    *scrape
	cpu      time.Duration // server on-CPU time, ns resolution
	cpuUser  time.Duration // the same split by mode, 10 ms ticks
	cpuSys   time.Duration
	selfCPU  time.Duration
	drops    uint64
	rxqBytes []float64 // trace: sampled receive-queue depth
	scrapeMs []float64 // trace: /metrics round trips under load
	churn    churnLog
}

func (p *phaseObs) verdicts() uint64 { return p.after.verdicts() - p.before.verdicts() }
func (p *phaseObs) violated() uint64 { return p.after.violated - p.before.violated }

type churnLog struct {
	rtts    []float64 // ms
	windows [][2]time.Time
	sent    int
	failed  int
}

// target is the live system one run loads.
type target struct {
	cfg   config
	rs    *ruleSet
	dep   *deployment
	srv   *serverProc
	ts    *trafficSet
	gen   *generator
	churn *churner
	chk   *checks
}

// setUp starts a fresh server and harness deployment and installs the rule
// set through the proxy. The returned duration runs from exec to the
// moment /metrics shows the reference table's pairs and paths.
func setUp(ctx context.Context, cfg config, rs *ruleSet) (*deployment, *serverProc, time.Duration, error) {
	dep, err := newDeployment(ctx, rs)
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	srv, err := startServer(ctx, cfg.bin, cfg.topo(), dep.ctrlAddr)
	if err != nil {
		dep.close()
		return nil, nil, 0, err
	}
	err = dep.connect(ctx, srv.proxyAddr)
	if err == nil {
		err = dep.install()
	}
	var m *scrape
	if err == nil {
		m, err = srv.scrape()
	}
	if err == nil && (m.pairs != uint64(rs.refStats.Pairs) || m.paths != uint64(rs.refStats.Paths)) {
		err = fmt.Errorf("after install the server has %d pairs/%d paths, the reference %d/%d",
			m.pairs, m.paths, rs.refStats.Pairs, rs.refStats.Paths)
	}
	if err != nil {
		srv.kill()
		dep.close()
		return nil, nil, 0, fmt.Errorf("set-up: %w\n%s", err, srv.stderr.Bytes())
	}
	return dep, srv, time.Since(start), nil
}

// tearDown stops the server with SIGINT and checks it exits 0 in time.
func tearDown(dep *deployment, srv *serverProc, chk *checks) float64 {
	took, err := srv.stop()
	if err != nil {
		chk.fail(0, "shutdown: %v", err)
	}
	dep.close()
	return ms(took)
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase runs one traffic phase and the counter folding around it.
func (t *target) phase(ctx context.Context, name string, rate float64, dur time.Duration) (*phaseObs, error) {
	p := &phaseObs{name: name}
	var err error
	if p.before, err = t.srv.scrape(); err != nil {
		return nil, err
	}
	u0, s0, err := t.srv.cpu()
	if err != nil {
		return nil, err
	}
	c0, err := t.srv.cpuTotal()
	if err != nil {
		return nil, err
	}
	_, d0, err := t.srv.rxq()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()

	octx, stopObservers := context.WithCancel(ctx)
	var obs sync.WaitGroup
	var obsErr atomic.Value
	observe := func(fn func(context.Context) error) {
		obs.Add(1)
		go func() {
			defer obs.Done()
			if err := fn(octx); err != nil && octx.Err() == nil {
				obsErr.Store(err)
			}
		}()
	}
	if t.churn != nil {
		observe(func(ctx context.Context) error { p.churn = t.churn.run(ctx); return nil })
	}
	if t.cfg.trace && rate == pacedRate {
		observe(func(ctx context.Context) error { return t.sampleQueue(ctx, p) })
		observe(func(ctx context.Context) error { return t.sampleScrapes(ctx, p) })
	}

	p.count, p.elapsed, err = t.gen.run(ctx, rate, dur)
	stopObservers()
	obs.Wait()
	if err != nil {
		return nil, err
	}
	if e, ok := obsErr.Load().(error); ok {
		return nil, e
	}
	p.selfCPU = selfCPU() - self0

	if p.after, err = t.drain(); err != nil {
		return nil, err
	}
	u1, s1, err := t.srv.cpu()
	if err != nil {
		return nil, err
	}
	c1, err := t.srv.cpuTotal()
	if err != nil {
		return nil, err
	}
	_, d1, err := t.srv.rxq()
	if err != nil {
		return nil, err
	}
	p.cpu, p.cpuUser, p.cpuSys, p.drops = c1-c0, u1-u0, s1-s0, d1-d0
	t.check(p)
	return p, nil
}

// drain waits until the report socket is empty and the verdict counters
// have stopped moving, and returns the final scrape.
func (t *target) drain() (*scrape, error) {
	deadline := time.Now().Add(drainTimeout)
	var last *scrape
	for {
		q, _, err := t.srv.rxq()
		if err != nil {
			return nil, err
		}
		m, err := t.srv.scrape()
		if err != nil {
			return nil, err
		}
		if q == 0 && last != nil && last.verdicts() == m.verdicts() {
			return m, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server still has %d bytes queued %v after the senders stopped", q, drainTimeout)
		}
		last = m
		time.Sleep(5 * time.Millisecond)
	}
}

func (t *target) sampleQueue(ctx context.Context, p *phaseObs) error {
	tk := time.NewTicker(20 * time.Millisecond)
	defer tk.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tk.C:
			q, _, err := t.srv.rxq()
			if err != nil {
				return err
			}
			p.rxqBytes = append(p.rxqBytes, float64(q))
		}
	}
}

func (t *target) sampleScrapes(ctx context.Context, p *phaseObs) error {
	tk := time.NewTicker(200 * time.Millisecond)
	defer tk.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tk.C:
			m, err := t.srv.scrape()
			if err != nil {
				return err
			}
			p.scrapeMs = append(p.scrapeMs, ms(m.took))
		}
	}
}

// check applies the per-phase output checks.
func (t *target) check(p *phaseObs) {
	sent, got := p.count.sent, p.verdicts()+p.drops
	if sent != got {
		t.chk.fail(absDiff(sent, got), "%s: sent %d but verified+violated+kernel drops = %d+%d", p.name, sent, p.verdicts(), p.drops)
	}
	violated, want := p.violated(), p.count.violations
	switch {
	case t.churn != nil:
		// Background flows avoid the toggled rules, so only a probe made
		// around an update can be flagged.
		if in := probesInWindows(p.count.probeTimes, p.churn.windows); violated > in {
			t.chk.fail(violated-in, "%s: %d violations but only %d probes sent within an update window", p.name, violated, in)
		}
	case p.drops == 0:
		if violated != want {
			t.chk.fail(absDiff(violated, want), "%s: server flagged %d reports, the reference %d", p.name, violated, want)
		}
		for sw, n := range p.count.blamed {
			name := t.rs.net.Switch(sw).Name
			if got := p.after.blamed[name] - p.before.blamed[name]; got != n {
				t.chk.fail(absDiff(got, n), "%s: switch %s blamed %d times, the reference says %d", p.name, name, got, n)
			}
		}
	case violated > want:
		t.chk.fail(violated-want, "%s: server flagged %d reports, more than the %d faulted ones sent", p.name, violated, want)
	}
	if p.churn.failed > 0 {
		t.chk.fail(uint64(p.churn.failed), "%s: %d FlowMods had no BarrierReply within %v", p.name, p.churn.failed, flowModTimeout)
	}
}

func probesInWindows(probes []time.Time, windows [][2]time.Time) uint64 {
	var n uint64
	for _, at := range probes {
		for _, w := range windows {
			if !at.Before(w[0].Add(-windowPadding)) && !at.After(w[1]) {
				n++
				break
			}
		}
	}
	return n
}

// churner deletes and re-adds its rules in turn, one FlowMod plus Barrier
// per tick.
type churner struct {
	dep     *deployment
	rules   []churnRule
	every   time.Duration
	current atomic.Int32
	next    int
}

// newChurn returns the workload's churner and the prober that follows it,
// or nils when the workload toggles no rules.
func newChurn(dep *deployment, ts *trafficSet) (*churner, *prober) {
	if len(ts.churn) == 0 {
		return nil, nil
	}
	c := &churner{dep: dep, rules: ts.churn, every: churnEvery}
	dep.ctrl.Timeout = flowModTimeout
	return c, &prober{dep: dep, rules: ts.churn, current: func() int { return int(c.current.Load()) }}
}

// quietTail times FlowMods with no traffic beside them, for workloads that
// have no updates of their own: one rule deleted and re-added for dur.
func quietTail(ctx context.Context, dep *deployment, dur time.Duration) churnLog {
	dep.ctrl.Timeout = flowModTimeout
	c := &churner{dep: dep, rules: []churnRule{{mod: dep.rs.tailRule}}, every: tailEvery}
	ctx, cancel := context.WithTimeout(ctx, dur)
	defer cancel()
	return c.run(ctx)
}

func (c *churner) run(ctx context.Context) churnLog {
	var log churnLog
	tk := time.NewTicker(c.every)
	defer tk.Stop()
	toggle := func() {
		i, add := (c.next/2)%len(c.rules), c.next%2 == 1
		c.next++
		c.current.Store(int32(i))
		start := time.Now()
		rtt, err := c.dep.toggle(c.rules[i].mod, add)
		log.sent++
		if err != nil {
			log.failed++
			return
		}
		log.rtts = append(log.rtts, ms(rtt))
		log.windows = append(log.windows, [2]time.Time{start, start.Add(rtt)})
	}
	for {
		select {
		case <-ctx.Done():
			if c.next%2 == 1 {
				toggle() // leave every rule installed
			}
			return log
		case <-tk.C:
			toggle()
		}
	}
}

// serverRun is what one run observed of the real binary.
type serverRun struct {
	setups     []float64 // s
	spawnReady []float64 // ms
	shutdowns  []float64 // ms
	genTime    time.Duration
	paced      *phaseObs
	saturate   *phaseObs
	rawRPS     float64
	tail       churnLog
	hwmKB      uint64
	threads    uint64
	final      *scrape
}

// runServer performs the set-ups and phases against the real binary.
func runServer(ctx context.Context, cfg config, rs *ruleSet, chk *checks) (*serverRun, error) {
	out := &serverRun{}
	repeats := setupRepeats
	if cfg.trace || cfg.quick {
		repeats = 1
	}
	var dep *deployment
	var srv *serverProc
	for i := 0; i < repeats; i++ {
		if srv != nil {
			out.shutdowns = append(out.shutdowns, tearDown(dep, srv, chk))
		}
		var took time.Duration
		var err error
		if dep, srv, took, err = setUp(ctx, cfg, rs); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, took.Seconds())
		out.spawnReady = append(out.spawnReady, ms(srv.spawnReady))
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
			dep.close()
		}
	}()

	genStart := time.Now()
	ts, err := buildTraffic(rs, dep.fabric, &dep.mu, cfg.w, cfg.seed, cfg.senders(), cfg.population())
	if err != nil {
		return nil, err
	}
	out.genTime = time.Since(genStart)

	t := &target{cfg: cfg, rs: rs, dep: dep, srv: srv, ts: ts, chk: chk}
	var probe *prober
	t.churn, probe = newChurn(dep, ts)
	if t.gen, err = newGenerator(srv.reportsAddr, ts, cfg.senders(), probe); err != nil {
		return nil, err
	}
	defer t.gen.close()

	// Warm-up: caches fill, the runtime settles; nothing is recorded.
	if _, _, err := t.gen.run(ctx, pacedRate, warmUp); err != nil {
		return nil, err
	}
	if _, err := t.drain(); err != nil {
		return nil, err
	}

	pl := cfg.plan()
	if out.paced, err = t.phase(ctx, "paced", pacedRate, pl.paced); err != nil {
		return nil, err
	}
	if pl.saturate > 0 {
		if out.saturate, err = t.phase(ctx, "saturate", saturateRate, pl.saturate); err != nil {
			return nil, err
		}
		if out.rawRPS, err = rawLoopback(ctx, ts, cfg.senders()); err != nil {
			return nil, err
		}
	}
	if pl.tail > 0 {
		out.tail = quietTail(ctx, dep, pl.tail)
		if out.tail.failed > 0 {
			chk.fail(uint64(out.tail.failed), "%d tail FlowMods had no BarrierReply within %v", out.tail.failed, flowModTimeout)
		}
	}

	if out.final, err = srv.scrape(); err != nil {
		return nil, err
	}
	if out.final.pairs != uint64(rs.refStats.Pairs) || out.final.paths != uint64(rs.refStats.Paths) {
		chk.fail(0, "at exit the server has %d pairs/%d paths, the reference %d/%d",
			out.final.pairs, out.final.paths, rs.refStats.Pairs, rs.refStats.Paths)
	}
	if out.hwmKB, out.threads, err = srv.status(); err != nil {
		return nil, err
	}
	stopped = true
	out.shutdowns = append(out.shutdowns, tearDown(dep, srv, chk))
	return out, nil
}

// rawLoopback measures what the same senders push, unthrottled, into a
// bare UDP socket in the harness. Nothing reads it: once its queue is full
// the kernel drops at the socket, so this is the senders and the loopback
// path alone — the ceiling any receiver on this machine could see.
func rawLoopback(ctx context.Context, ts *trafficSet, senders int) (float64, error) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer sink.Close()
	g, err := newGenerator(sink.LocalAddr().String(), ts, senders, nil)
	if err != nil {
		return 0, err
	}
	defer g.close()
	c, elapsed, err := g.run(ctx, 0, rawControl)
	if err != nil {
		return 0, err
	}
	return float64(c.sent) / elapsed.Seconds(), nil
}

// flowModRTTs is the run's FlowMod→BarrierReply sample: under load for
// zipf_churn, the quiet tail otherwise.
func (r *serverRun) flowModRTTs() []float64 {
	if len(r.paced.churn.rtts) > 0 {
		return r.paced.churn.rtts
	}
	return r.tail.rtts
}

// capacity is the verdicts per second over the whole saturate phase (traced
// runs only). The server alternates between a slower and a faster regime
// every few seconds; the mean over the phase is steadier from run to run
// than any window's rate.
func (r *serverRun) capacity() float64 {
	return ratio(float64(r.saturate.verdicts()), r.saturate.elapsed.Seconds())
}

// cpuPerReport is the server's CPU time per verdict over the paced phase, µs.
func (r *serverRun) cpuPerReport() float64 {
	return ratio(us(r.paced.cpu), float64(r.paced.verdicts()))
}

func (r *serverRun) hitRatio() float64 {
	hits := float64(r.paced.after.hits - r.paced.before.hits)
	misses := float64(r.paced.after.misses - r.paced.before.misses)
	return ratio(hits, hits+misses)
}

// adequacy is the sender guard: a run whose generator could not have
// offered twice what the server took, or ran late, measured the generator.
func (r *serverRun) adequacy(chk *checks) {
	if r.saturate != nil && r.rawRPS < 2*r.capacity() {
		chk.fail(0, "sender_bound: raw loopback %.0f/s is under twice the measured capacity %.0f/s", r.rawRPS, r.capacity())
	}
	if late := r.paced.count.lateFrac(); late >= maxLateFrac {
		chk.fail(0, "sender_bound: %.2f%% of paced datagrams left over %v late or not at all (worst %v behind schedule)", 100*late, lateAfter, r.paced.count.maxBehind)
	}
}

func (r *serverRun) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":           {median(r.setups), "s"},
		"cpu_us_per_report": {r.cpuPerReport(), "us"},
		"rss_peak_mb":       {float64(r.hwmKB) / 1024, "MB"},
	}
}

// serverLayers are the per-layer figures only the subprocess can give.
func (r *serverRun) serverLayers() map[string]metric {
	p, s := r.paced, r.saturate
	falseAlarms := 0.0
	if p.churn.sent > 0 {
		falseAlarms = ratio(float64(p.violated()), float64(p.churn.sent))
	}
	return map[string]metric{
		"core.cache_hit_ratio":                   {r.hitRatio(), "ratio"},
		"core.table_pairs":                       {float64(r.final.pairs), "count"},
		"core.table_paths":                       {float64(r.final.paths), "count"},
		"server.cpu_user_us_per_report":          {ratio(us(p.cpuUser), float64(p.verdicts())), "us"},
		"server.cpu_sys_us_per_report":           {ratio(us(p.cpuSys), float64(p.verdicts())), "us"},
		"server.capacity_rps":                    {r.capacity(), "1/s"},
		"server.cpu_us_per_report_saturated":     {ratio(us(s.cpu), float64(s.verdicts())), "us"},
		"server.report_loss_frac":                {ratio(float64(p.count.sent)-float64(p.verdicts()), float64(p.count.sent)), "ratio"},
		"server.spawn_ready_ms":                  {median(r.spawnReady), "ms"},
		"server.shutdown_ms":                     {median(r.shutdowns), "ms"},
		"server.threads":                         {float64(r.threads), "count"},
		"kernel.rxq_drops":                       {float64(p.drops), "count"},
		"kernel.rxq_bytes_p50":                   {quantile(p.rxqBytes, 0.5), "B"},
		"kernel.rxq_bytes_max":                   {quantile(p.rxqBytes, 1), "B"},
		"veridp.update_false_alarms_per_flowmod": {falseAlarms, "count"},
		"veridp.metrics_scrape_ms_p50":           {quantile(p.scrapeMs, 0.5), "ms"},
		"gen.offered_rps_saturate":               {ratio(float64(s.count.sent), s.elapsed.Seconds()), "1/s"},
		"gen.late_frac":                          {p.count.lateFrac(), "ratio"},
		"gen.sender_cpu_frac":                    {ratio(p.selfCPU.Seconds(), p.elapsed.Seconds()*float64(runtime.NumCPU())), "ratio"},
		"gen.raw_loopback_rps":                   {r.rawRPS, "1/s"},
		"gen.capacity_vs_raw":                    {ratio(r.capacity(), r.rawRPS), "ratio"},
		"openflow.flowmod_rtt_ms_p50":            {quantile(r.flowModRTTs(), 0.50), "ms"},
		"openflow.flowmod_rtt_ms_p90":            {quantile(r.flowModRTTs(), 0.90), "ms"},
		"gen.harness_gen_s":                      {r.genTime.Seconds(), "s"},
	}
}

// attempted counts the operations whose outcome the run checked: paced
// reports and every FlowMod timed.
func (r *serverRun) attempted() uint64 {
	n := r.paced.count.sent + uint64(r.paced.churn.sent+r.tail.sent)
	if r.saturate != nil {
		n += uint64(r.saturate.churn.sent)
	}
	return n
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics; 0 for no data.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

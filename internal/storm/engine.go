// The campaign engine. One Run deploys a live environment — emulated
// fabric with a fake clock, controller behind a tee that hands every
// FlowMod to the monitor (as the interception proxy does) and on to a
// faults.FaultyInstaller, core.Handle snapshot publication, and a real UDP
// Sender → Collector pipeline — then executes the campaign step by step:
// apply the step's action, drive a probe phase, check the oracles, wait
// for the collector to drain. Everything observable is deterministic:
// actions and probes draw only from the step's private Pick RNG, the clock
// only advances when the engine says so, and the async collector side
// feeds counters (folded by the counter-fold oracle), never the verdict
// trace.

package storm

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"veridp/internal/bloom"
	"veridp/internal/controller"
	"veridp/internal/core"
	"veridp/internal/dataplane"
	"veridp/internal/faults"
	"veridp/internal/flowtable"
	"veridp/internal/openflow"
	"veridp/internal/packet"
	"veridp/internal/report"
	"veridp/internal/sim"
	"veridp/internal/topo"
	"veridp/internal/traffic"
)

// drainTimeout bounds the wait for in-flight UDP reports; on loopback a
// healthy pipeline drains in microseconds, so hitting this is itself a
// counter-fold failure, not a reason to wait longer.
const drainTimeout = 10 * time.Second

// syntheticBase is where churned /32 prefixes are drawn from
// (198.18.0.0/15, the benchmarking range) — guaranteed disjoint from the
// 10/8 host addressing, so churn never changes a probe's forwarding.
const syntheticBase = 0xc6120000

// Result summarizes one campaign run.
type Result struct {
	Steps     int      // steps executed (≤ len(campaign.Steps) on failure)
	Probes    int      // probe packets injected
	Reports   int      // tag reports those probes produced
	Verified  int      // reports that verified OK (synchronous pass)
	Violated  int      // reports that failed verification
	Localized int      // failed reports PathInfer recovered a path for
	Reruns    uint64   // FlowMods the monitors followed by re-running Algorithm 2
	Failure   *Failure // first oracle violation, nil on a clean run
	Trace     []byte   // deterministic per-report verdict trace
}

// ruleKey identifies one physical rule.
type ruleKey struct {
	sw topo.SwitchID
	id uint64
}

// churnRoute remembers one synthetic route's installed rule IDs.
type churnRoute struct {
	ids map[topo.SwitchID]uint64
}

// relaySink forwards fabric reports to the current UDP sender and counts
// them — the ground truth the counter-fold oracle measures against.
type relaySink struct {
	mu   sync.Mutex
	sent uint64               // guarded by mu
	dst  dataplane.ReportSink // guarded by mu
}

func (s *relaySink) HandleReport(r *packet.Report) {
	s.mu.Lock()
	s.sent++
	dst := s.dst
	s.mu.Unlock()
	if dst != nil {
		dst.HandleReport(r)
	}
}

func (s *relaySink) setDst(dst dataplane.ReportSink) {
	s.mu.Lock()
	s.dst = dst
	s.mu.Unlock()
}

func (s *relaySink) Sent() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sent
}

// teeInstaller is the deployment's interception proxy: every FlowMod the
// controller sends reaches the current monitor through the proxy's entry
// point, core.Handle.ApplyFlowMod, before it goes on to the data plane.
// The monitor keeps its own copy of the logical configurations, exactly as
// a server process does, and the incremental-equiv oracle checks that the
// table it maintains this way never drifts from a from-scratch build.
type teeInstaller struct {
	e     *engine
	inner controller.Installer
}

func (t *teeInstaller) Apply(f *openflow.FlowMod) error {
	// As on the proxy's splice, a FlowMod the monitor rejects still goes
	// to the switch; the resulting drift is the oracle's to report.
	h := t.e.currentHandle()
	_ = h.ApplyFlowMod(f.Switch, f)
	t.e.recheckCache(h.Current())
	return t.inner.Apply(f)
}

func (t *teeInstaller) Barrier(sw topo.SwitchID) error { return t.inner.Barrier(sw) }

// engine is the mutable state of one campaign run.
type engine struct {
	c    *Campaign
	logf func(format string, args ...any)

	env    *sim.Env
	faulty *faults.FaultyInstaller
	relay  *relaySink
	now    time.Time // fake clock; advances once per probe
	mesh   []traffic.PingPair

	mu     sync.Mutex
	handle *core.Handle // guarded by mu; re-seated by restart-monitor while collector workers read it

	collector *report.Collector
	sender    *report.Sender
	colCancel context.CancelFunc
	colDone   chan error
	// Counters of previous collector incarnations, accumulated at restart.
	receivedPrev  uint64
	malformedPrev uint64
	handled       atomic.Uint64 // collector handler invocations, all incarnations
	asyncViolated atomic.Uint64 // failing verdicts seen by the async path

	baseGoroutines int

	// Campaign ground truth.
	churn       []churnRoute
	missing     map[ruleKey]bool       // rules absent from the physical plane
	injected    map[topo.SwitchID]bool // switches carrying an injected fault
	faultEvents int
	nextIP      uint32
	rerouteN    int
	deviantN    int
	lastReport  *packet.Report

	// Verdict-cache plumbing: probeCache serves the synchronous probe
	// phase (the engine goroutine is its single writer); the scratch
	// single-report batch keeps VerifyBatch on the deterministic path.
	// coSamples is the cache-coherence oracle's replay ring: cached
	// verdicts pinned with the snapshot that produced them, re-checked
	// against uncached Verify after every step, and their reports re-run
	// through probeCache after every FlowMod (staleCache keeps the first
	// divergence until the step reports it).
	probeCache *core.VerdictCache
	cacheIn    [1]packet.Report
	cacheOut   [1]core.Verdict
	coSamples  [coSampleRing]cacheSample
	coNext     int
	staleCache string

	res   *Result
	trace bytes.Buffer
}

// coSampleRing bounds how many cached verdicts the coherence oracle
// retains; old entries (and the snapshots they pin) roll off.
const coSampleRing = 32

// cacheSample is one cached verdict with everything needed to recompute
// it: the exact snapshot it was served under and a copy of the report.
type cacheSample struct {
	snap *core.Snapshot
	rep  packet.Report
	v    core.Verdict
}

// Run executes the campaign. The returned error is harness trouble
// (bad campaign, socket failure, cancelled ctx); an oracle violation is
// not an error — it comes back as Result.Failure with the Result's
// counters and trace intact.
func Run(ctx context.Context, c *Campaign, logf func(format string, args ...any)) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	e := &engine{
		c:        c,
		logf:     logf,
		relay:    &relaySink{},
		missing:  map[ruleKey]bool{},
		injected: map[topo.SwitchID]bool{},
		nextIP:   syntheticBase,
		res:      &Result{},
	}
	if err := e.setup(ctx); err != nil {
		return nil, err
	}

	var fail *Failure
	for i, st := range c.Steps {
		if err := ctx.Err(); err != nil {
			e.abandon()
			return nil, err
		}
		f, err := e.step(ctx, i, st)
		if err != nil {
			e.abandon()
			return nil, err
		}
		e.res.Steps++
		if f != nil {
			fail = f
			break
		}
	}

	tfail, err := e.teardown()
	if err != nil {
		return nil, err
	}
	if fail == nil {
		fail = tfail
	}
	e.res.Failure = fail
	e.res.Trace = e.trace.Bytes()
	e.res.Reruns += e.currentHandle().FlowModPaths().Rerun
	return e.res, nil
}

// setup deploys the environment and starts the report pipeline.
func (e *engine) setup(ctx context.Context) error {
	e.baseGoroutines = runtime.NumGoroutine()
	e.now = time.Unix(100_000, 0)
	params := bloom.Params{MBits: e.c.MBits}
	opts := []dataplane.Option{
		dataplane.WithReportSink(e.relay),
		// The engine is the only writer of e.now and injection is
		// synchronous, so the closure is race-free.
		dataplane.WithClock(func() time.Time { return e.now }),
	}
	var (
		env *sim.Env
		err error
	)
	switch e.c.Topo {
	case "ft4":
		env, err = sim.FatTreeEnv(4, params, opts...)
	case "ft6":
		env, err = sim.FatTreeEnv(6, params, opts...)
	case "figure5":
		env, err = sim.Figure5Env(params, opts...)
	default:
		err = fmt.Errorf("storm: unknown topology %q", e.c.Topo)
	}
	if err != nil {
		return err
	}
	e.env = env
	e.faulty = &faults.FaultyInstaller{Inner: &dataplane.FabricInstaller{Fabric: env.Fabric}}
	env.Ctrl.SetInstaller(&teeInstaller{e: e, inner: e.faulty})
	e.setHandle(e.newHandle())
	e.probeCache = core.NewVerdictCache(0)
	e.mesh = traffic.PingMesh(env.Net)
	if len(e.mesh) == 0 {
		return fmt.Errorf("storm: topology %q has no probe pairs", e.c.Topo)
	}
	return e.startCollector(ctx)
}

// newHandle starts a monitor the way a server process starts: with its own
// copy of the controller's logical configurations and a table built from
// them. From then on the tee keeps both in step.
func (e *engine) newHandle() *core.Handle {
	configs := make(map[topo.SwitchID]*flowtable.SwitchConfig, len(e.env.Ctrl.Logical()))
	for sw, cfg := range e.env.Ctrl.Logical() {
		configs[sw] = cfg.Clone()
	}
	return core.NewHandle((&core.Builder{Net: e.env.Net, Space: e.env.Space, Params: e.env.Params, Configs: configs}).Build())
}

// currentHandle is the monitor the collector workers verify against; the
// restart-monitor action re-seats it.
func (e *engine) currentHandle() *core.Handle {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.handle
}

func (e *engine) setHandle(h *core.Handle) {
	e.mu.Lock()
	if e.handle != nil {
		e.res.Reruns += e.handle.FlowModPaths().Rerun
	}
	e.handle = h
	e.mu.Unlock()
}

// batchHandler builds one collector worker's report handler. It exercises
// the batched, cached verify path concurrently with the engine's
// maintenance ops — each worker owns a private verdict cache, exactly the
// production Monitor arrangement; its verdicts feed counters only — the
// deterministic trace comes from the synchronous probe phase.
func (e *engine) batchHandler() func([]packet.Report) {
	cache := core.NewVerdictCache(0)
	var verdicts []core.Verdict
	return func(batch []packet.Report) {
		e.handled.Add(uint64(len(batch)))
		if cap(verdicts) < len(batch) {
			verdicts = make([]core.Verdict, len(batch))
		}
		out := verdicts[:len(batch)]
		e.currentHandle().Current().VerifyBatch(cache, batch, out)
		for i := range out {
			if !out[i].OK {
				e.asyncViolated.Add(1)
			}
		}
	}
}

// startCollector boots one collector incarnation and points the relay's
// UDP sender at it.
func (e *engine) startCollector(ctx context.Context) error {
	col, err := report.NewCollector("127.0.0.1:0", e.batchHandler, nil, report.WithWorkers(2))
	if err != nil {
		return err
	}
	snd, err := report.NewSender(col.Addr().String())
	if err != nil {
		col.Close()
		return err
	}
	cctx, cancel := context.WithCancel(ctx)
	// chan: buffered 1 — Run's exit status parks here even if stopCollector times out and never receives
	done := make(chan error, 1)
	go func() { done <- col.Run(cctx) }()
	e.collector, e.sender, e.colCancel, e.colDone = col, snd, cancel, done
	e.relay.setDst(snd)
	return nil
}

// stopCollector detaches the relay, cancels the incarnation, waits for
// Run to return (workers joined ⇒ handler count settled), and folds the
// incarnation's counters into the cumulative totals.
func (e *engine) stopCollector() error {
	e.relay.setDst(nil)
	e.colCancel()
	select {
	case <-e.colDone:
	case <-time.After(drainTimeout):
		return fmt.Errorf("storm: collector did not stop within %v", drainTimeout)
	}
	e.sender.Close()
	e.receivedPrev += e.collector.Received()
	e.malformedPrev += e.collector.Malformed()
	e.collector, e.sender = nil, nil
	return nil
}

// abandon tears the pipeline down after a harness error, best-effort.
func (e *engine) abandon() {
	if e.collector != nil {
		_ = e.stopCollector()
	}
}

// step applies one campaign step and runs the oracle battery.
func (e *engine) step(ctx context.Context, i int, st Step) (*Failure, error) {
	rng := rand.New(rand.NewSource(st.Pick))
	f, err := e.apply(ctx, i, st.Op, rng)
	if f != nil || err != nil {
		return f, err
	}
	if f := e.incrementalOracle(i); f != nil {
		return f, nil
	}
	if f, err := e.probePhase(i, rng); f != nil || err != nil {
		return f, err
	}
	if f := e.cacheCoherenceOracle(i); f != nil {
		return f, nil
	}
	return e.drain(i), nil
}

// incrementalOracle checks the table the monitor maintained FlowMod by
// FlowMod — by each rule's difference or by re-running Algorithm 2 —
// against a from-scratch build over the controller's logical state: the
// published entries and totals must be the same. The reference is built in
// the monitor's header space, where equal header sets are equal refs.
func (e *engine) incrementalOracle(i int) *Failure {
	h := e.currentHandle()
	var err error
	h.Inspect(func(pt *core.PathTable) {
		ref := (&core.Builder{Net: pt.Net, Space: pt.Space, Params: pt.Params, Configs: e.env.Ctrl.Logical()}).Build()
		err = h.Current().Diff(ref)
	})
	if err != nil {
		return failf(i, OracleIncrementalEquiv, "published table differs from a from-scratch build: %v", err)
	}
	return nil
}

// recheckCache runs every sampled report through the probe cache against
// a snapshot just published, and keeps the first verdict that differs
// from an uncached Verify. Checked after each FlowMod rather than each
// step, it sees every publication on its own: a shard an incremental
// update changed without renewing its epoch serves a stale verdict here
// even when a later FlowMod of the same step renews every epoch.
func (e *engine) recheckCache(snap *core.Snapshot) {
	for idx := range e.coSamples {
		s := &e.coSamples[idx]
		if s.snap == nil || e.staleCache != "" {
			continue
		}
		e.cacheIn[0] = s.rep
		snap.VerifyBatch(e.probeCache, e.cacheIn[:], e.cacheOut[:])
		if got, want := e.cacheOut[0], snap.Verify(&s.rep); got != want {
			e.staleCache = fmt.Sprintf("after a FlowMod, report %v: cached verdict ok=%t reason=%v matched %v, uncached ok=%t reason=%v matched %v (epoch %d)",
				&s.rep, got.OK, got.Reason, got.Matched, want.OK, want.Reason, want.Matched, snap.Epoch(s.rep.Outport))
		}
	}
}

// cacheCoherenceOracle replays the sample ring: every verdict the cache
// ever served must be recomputable, identically, by the uncached Verify
// against the exact snapshot that served it — no matter how many
// Swap/ApplyFlowMod publications (epoch bumps) have happened since.
// Snapshots are immutable, so any divergence means the cache associated a
// verdict with the wrong key or the wrong epoch.
func (e *engine) cacheCoherenceOracle(i int) *Failure {
	if e.staleCache != "" {
		return failf(i, OracleCacheCoherent, "%s", e.staleCache)
	}
	for idx := range e.coSamples {
		s := &e.coSamples[idx]
		if s.snap == nil {
			continue
		}
		if got := s.snap.Verify(&s.rep); got != s.v {
			return failf(i, OracleCacheCoherent,
				"replayed report %v: cached verdict ok=%t reason=%v, uncached recompute ok=%t reason=%v (epoch %d)",
				&s.rep, s.v.OK, s.v.Reason, got.OK, got.Reason, s.snap.Epoch(s.rep.Outport))
		}
	}
	return nil
}

// apply dispatches one action.
func (e *engine) apply(ctx context.Context, i int, op Op, rng *rand.Rand) (*Failure, error) {
	switch op {
	case OpChurnInstall:
		return nil, e.churnInstall(rng)
	case OpChurnDelete:
		return nil, e.churnDelete(rng)
	case OpReroute:
		return nil, e.reroute(rng)
	case OpWrongPort, OpBlackhole, OpEvict:
		return nil, e.randomRuleFault(op, rng)
	case OpOverflow:
		return nil, e.overflow(rng)
	case OpMissedRule:
		return nil, e.deviantInstall(rng, false)
	case OpPriorityLoss:
		return nil, e.deviantInstall(rng, true)
	case OpSampleShift:
		e.sampleShift(rng)
		return nil, nil
	case OpCompact:
		h := e.currentHandle()
		return e.stressMaintenance(i, h.Compact), nil
	case OpSwap:
		h := e.currentHandle()
		return e.stressMaintenance(i, func() {
			h.Swap(func(old *core.PathTable) *core.PathTable {
				return (&core.Builder{Net: old.Net, Space: old.Space, Params: old.Params, Configs: old.Configs}).Build()
			})
		}), nil
	case OpRestartMonitor:
		e.setHandle(e.newHandle())
		return nil, nil
	case OpRestartCollector:
		return e.restartCollector(ctx, i)
	case OpDesyncParams:
		e.desyncParams()
		return nil, nil
	default:
		return nil, fmt.Errorf("storm: unknown op %d", uint8(op))
	}
}

// churnInstall routes one fresh synthetic /32 through the controller.
func (e *engine) churnInstall(rng *rand.Rand) error {
	hosts := e.env.Net.Hosts()
	h := hosts[pick(rng, len(hosts))]
	ip := e.nextIP
	e.nextIP++
	ids, err := e.env.Ctrl.RoutePrefix(flowtable.Prefix{IP: ip, Len: 32}, h.Attach)
	if err != nil {
		return err
	}
	e.churn = append(e.churn, churnRoute{ids: ids})
	return nil
}

// churnDelete removes one churned route whose rules are all still
// physically present (RemoveRule on an evicted or never-installed rule
// would error — those routes stay as permanent inconsistencies).
func (e *engine) churnDelete(rng *rand.Rand) error {
	var cands []int
	for idx, cr := range e.churn {
		damaged := false
		for sw, id := range cr.ids {
			if e.missing[ruleKey{sw, id}] {
				damaged = true
				break
			}
		}
		if !damaged {
			cands = append(cands, idx)
		}
	}
	if len(cands) == 0 {
		return nil // nothing safely deletable: no-op
	}
	idx := cands[pick(rng, len(cands))]
	cr := e.churn[idx]
	sws := make([]topo.SwitchID, 0, len(cr.ids))
	for sw := range cr.ids {
		sws = append(sws, sw)
	}
	sort.Slice(sws, func(a, b int) bool { return sws[a] < sws[b] })
	for _, sw := range sws {
		if err := e.env.Ctrl.RemoveRule(sw, cr.ids[sw]); err != nil {
			return err
		}
	}
	e.churn = append(e.churn[:idx], e.churn[idx+1:]...)
	return nil
}

// reroute pins one host pair onto its second equal-cost path — the
// control plane's reaction to a link flap — on both planes.
func (e *engine) reroute(rng *rand.Rand) error {
	if e.rerouteN >= 9000 {
		return nil // priority headroom exhausted; keep the run deterministic
	}
	hosts := e.env.Net.Hosts()
	for attempt := 0; attempt < 16; attempt++ {
		src := hosts[pick(rng, len(hosts))]
		dst := hosts[pick(rng, len(hosts))]
		if src == dst || src.Attach.Switch == dst.Attach.Switch {
			continue
		}
		paths, err := e.env.Net.ShortestPaths(src.Attach, dst.Attach, 2)
		if err != nil || len(paths) < 2 {
			continue
		}
		m := flowtable.Match{
			SrcPrefix: flowtable.Prefix{IP: src.IP, Len: 32},
			DstPrefix: flowtable.Prefix{IP: dst.IP, Len: 32},
		}
		prio := uint16(20000 + e.rerouteN)
		e.rerouteN++
		_, err = e.env.Ctrl.InstallPathRules(paths[1], m, prio)
		return err
	}
	return nil // no reroutable pair found: no-op
}

// randomRuleFault applies one of the physical-only §2.2 faults to a
// random installed rule.
func (e *engine) randomRuleFault(op Op, rng *rand.Rand) error {
	sw, id, ok := faults.RandomRule(e.env.Fabric, rng)
	if !ok {
		return nil
	}
	var err error
	switch op {
	case OpWrongPort:
		_, err = faults.WrongPort(e.env.Fabric, sw, id, rng)
	case OpBlackhole:
		_, err = faults.Blackhole(e.env.Fabric, sw, id)
	case OpEvict:
		_, err = faults.Evict(e.env.Fabric, sw, id)
		if err == nil {
			e.missing[ruleKey{sw, id}] = true
		}
	default:
		return fmt.Errorf("storm: op %v is not a rule fault", op)
	}
	if err != nil {
		return err
	}
	e.injected[sw] = true
	e.faultEvents++
	return nil
}

// overflow drops the tail of a random switch's table into the "software
// table" (rebased priorities), keeping the rebase small enough to stay
// feasible against the switch's priority floor.
func (e *engine) overflow(rng *rand.Rand) error {
	ids := make([]topo.SwitchID, 0, len(e.env.Fabric.Switches()))
	for sw := range e.env.Fabric.Switches() {
		ids = append(ids, sw)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	sw := ids[pick(rng, len(ids))]
	rules := e.env.Fabric.Switch(sw).Config.Table.Len()
	if rules < 2 {
		return nil
	}
	over := 1 + pick(rng, minInt(8, rules-1))
	injs, err := faults.TableOverflow(e.env.Fabric, sw, rules-over)
	if err != nil {
		return nil // rebase impossible against this switch's priority floor: inert
	}
	if len(injs) > 0 {
		e.injected[sw] = true
		e.faultEvents++
	}
	return nil
}

// deviantInstall drives a targeted §2.2 installation fault through the
// controller: pick a probe pair, install a high-priority rule at one hop
// of its intended path steering it to a different port, and arm the
// FaultyInstaller so the physical copy is dropped (missed rule) or
// degraded to priority zero (priority loss). Either way the intended path
// moves and the data plane stays put — a deviation the oracles must see.
func (e *engine) deviantInstall(rng *rand.Rand, degrade bool) error {
	if e.deviantN >= 9000 {
		return nil
	}
	for attempt := 0; attempt < 16; attempt++ {
		pair := e.mesh[pick(rng, len(e.mesh))]
		src := e.env.Net.Host(pair.SrcHost)
		dst := e.env.Net.Host(pair.DstHost)
		var intended topo.Path
		e.currentHandle().Inspect(func(pt *core.PathTable) {
			intended = pt.IntendedPath(src.Attach, pair.Header)
		})
		if len(intended) == 0 {
			continue
		}
		hop := intended[pick(rng, len(intended))]
		if hop.Out == topo.DropPort {
			continue
		}
		var alts []topo.PortID
		for _, p := range e.env.Net.Switch(hop.Switch).Ports() {
			if p != hop.Out {
				alts = append(alts, p)
			}
		}
		if len(alts) == 0 {
			continue
		}
		alt := alts[pick(rng, len(alts))]
		r := flowtable.Rule{
			Priority: uint16(30000 + e.deviantN),
			Match: flowtable.Match{
				InPort:    hop.In,
				SrcPrefix: flowtable.Prefix{IP: src.IP, Len: 32},
				DstPrefix: flowtable.Prefix{IP: dst.IP, Len: 32},
			},
			Action:  flowtable.ActOutput,
			OutPort: alt,
		}
		e.deviantN++
		if degrade {
			e.faulty.ForceDegrade = true
		} else {
			e.faulty.ForceDrop = true
		}
		id, err := e.env.Ctrl.InstallRule(hop.Switch, r)
		e.faulty.ForceDrop, e.faulty.ForceDegrade = false, false
		if err != nil {
			return err
		}
		if !degrade {
			e.missing[ruleKey{hop.Switch, id}] = true
		}
		e.injected[hop.Switch] = true
		e.faultEvents++
		return nil
	}
	return nil
}

// sampleShift re-seats every switch's sampler.
func (e *engine) sampleShift(rng *rand.Rand) {
	intervals := []time.Duration{0, 5 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond}
	iv := intervals[pick(rng, len(intervals))]
	if iv == 0 {
		e.env.Fabric.SetSampler(func() dataplane.Sampler { return dataplane.SampleAll{} })
		return
	}
	e.env.Fabric.SetSampler(func() dataplane.Sampler { return dataplane.NewFlowSampler(iv) })
}

// desyncParams is the self-test action: shift the fabric's tag parameters
// while the monitor keeps the old ones. Every subsequent sampled probe
// folds its tag under different parameters than the table — a guaranteed,
// deterministic false positive.
func (e *engine) desyncParams() {
	alt := bloom.Params{MBits: 32}
	if e.c.MBits == 32 {
		alt = bloom.Params{MBits: 64}
	}
	e.env.Fabric.SetParams(alt)
}

// restartCollector drains the current incarnation, stops it (checking the
// cross-incarnation counter fold and the goroutine baseline), and boots a
// fresh one.
func (e *engine) restartCollector(ctx context.Context, i int) (*Failure, error) {
	if f := e.drain(i); f != nil {
		return f, nil
	}
	if err := e.stopCollector(); err != nil {
		return nil, err
	}
	if got, want := e.handled.Load(), e.receivedPrev; got != want {
		return failf(i, OracleCounterFold,
			"handler ran %d times, collectors received %d", got, want), nil
	}
	if f := e.checkGoroutines(i, "collector restart"); f != nil {
		return f, nil
	}
	return nil, e.startCollector(ctx)
}

// stressMaintenance runs a maintenance mutation while shadow verifiers
// hammer a pinned snapshot with the last report: their verdict must never
// change mid-flight — the one-verdict contract of snapshot publication.
func (e *engine) stressMaintenance(i int, mutate func()) *Failure {
	rep := e.lastReport
	if rep == nil {
		mutate()
		return nil
	}
	snap := e.currentHandle().Current()
	want := snap.Verify(rep)
	stop := make(chan struct{})
	var torn atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each shadow verifier owns a cache, so the hammering also
			// covers the cached probe path against concurrent publication.
			cache := core.NewVerdictCache(6)
			var in [1]packet.Report
			var out [1]core.Verdict
			in[0] = *rep
			for {
				//lint:ignore chanflow the shadow verifiers spin deliberately: yielding would shrink the race window the oracle exists to probe
				select {
				case _, open := <-stop:
					if !open { // stop is only ever closed
						return
					}
				default:
					snap.VerifyBatch(cache, in[:], out[:])
					if got := out[0]; got.OK != want.OK || got.Reason != want.Reason {
						torn.Store(true)
						return
					}
				}
			}
		}()
	}
	mutate()
	close(stop)
	wg.Wait()
	if torn.Load() {
		return failf(i, OracleOneVerdict,
			"pinned snapshot verdict changed during maintenance (want ok=%t reason=%v)",
			want.OK, want.Reason)
	}
	return nil
}

// probePhase injects Probes random mesh probes, verifies every report
// synchronously against one pinned snapshot, and applies the per-probe
// oracles.
func (e *engine) probePhase(i int, rng *rand.Rand) (*Failure, error) {
	h := e.currentHandle()
	snap := h.Current()
	probes := e.c.Probes
	if probes < 1 || probes > MaxProbes {
		probes = 4
	}
	for p := 0; p < probes; p++ {
		ping := e.mesh[pick(rng, len(e.mesh))]
		src := e.env.Net.Host(ping.SrcHost)
		var intended topo.Path
		h.Inspect(func(pt *core.PathTable) {
			intended = pt.IntendedPath(src.Attach, ping.Header)
		})
		e.now = e.now.Add(7 * time.Millisecond)
		res, err := e.env.Fabric.InjectFromHost(ping.SrcHost, ping.Header)
		if err != nil {
			return nil, err
		}
		deviated := !samePaths(intended, res.Path)
		e.res.Probes++
		violations := 0
		for ri, rep := range res.Reports {
			e.res.Reports++
			e.lastReport = rep
			// Cached arm: the engine goroutine is probeCache's single
			// writer, so the probe phase runs the same batch API the
			// collector workers use.
			e.cacheIn[0] = *rep
			snap.VerifyBatch(e.probeCache, e.cacheIn[:], e.cacheOut[:])
			v := e.cacheOut[0]
			again := snap.Verify(rep)
			if v.OK != again.OK || v.Reason != again.Reason || v.Matched != again.Matched {
				return failf(i, OracleCacheCoherent,
					"report %v: cached verdict ok=%t reason=%v diverges from uncached ok=%t reason=%v",
					rep, v.OK, v.Reason, again.OK, again.Reason), nil
			}
			e.coSamples[e.coNext] = cacheSample{snap: snap, rep: *rep, v: v}
			e.coNext = (e.coNext + 1) % coSampleRing
			fmt.Fprintf(&e.trace, "step=%04d %s>%s %s r%d ok=%t reason=%v\n",
				i, ping.SrcHost, ping.DstHost, res.Outcome, ri, v.OK, v.Reason)
			if v.OK {
				e.res.Verified++
				continue
			}
			e.res.Violated++
			violations++
			if !deviated {
				state := "unaffected probe"
				if e.faultEvents == 0 {
					state = "fault-free prefix"
				}
				return failf(i, OracleNoFalsePositive,
					"%s: %s>%s followed its intended path but report failed (%v)",
					state, ping.SrcHost, ping.DstHost, v.Reason), nil
			}
			if f := e.localizationOracle(i, snap, h, rep, intended, res); f != nil {
				return f, nil
			}
		}
		// Detection soundness: with 64-bit tags collisions are negligible,
		// so a deviated probe that reported must be caught.
		if deviated && len(res.Reports) > 0 && e.c.MBits >= 48 && violations == 0 {
			return failf(i, OracleLocalization,
				"deviated probe %s>%s produced %d reports, none failed verification (intended %v, actual %v)",
				ping.SrcHost, ping.DstHost, len(res.Reports), intended, res.Path), nil
		}
	}
	return nil, nil
}

// localizationOracle checks Algorithm 4 against ground truth on one
// failed report. The strong form — localization succeeds, recovers the
// actual path, and blames the divergence switch — is only guaranteed for
// a single injected fault (PathInfer's single-deviation model); past that
// it still counts recoveries for the Result.
func (e *engine) localizationOracle(i int, snap *core.Snapshot, h *core.Handle,
	rep *packet.Report, intended topo.Path, res *dataplane.Result) *Failure {
	var (
		blamed     topo.SwitchID
		candidates []topo.Path
		locOK      bool
	)
	h.Inspect(func(pt *core.PathTable) {
		blamed, candidates, locOK = pt.Localize(rep)
	})
	if locOK {
		e.res.Localized++
	}
	if snap.Params().MBits < 48 || e.faultEvents != 1 {
		return nil
	}
	expected, expOK := core.FaultySwitch(intended, res.Path)
	if !expOK {
		return nil // deviation not visible in this report's ground truth
	}
	if !locOK {
		return failf(i, OracleLocalization,
			"single fault at an injected switch, but PathInfer recovered no candidate for %v", rep)
	}
	if !containsPath(candidates, res.Path) {
		return failf(i, OracleLocalization,
			"candidate set misses the ground-truth path %v", res.Path)
	}
	if len(candidates) == 1 && blamed != expected {
		return failf(i, OracleLocalization,
			"blamed switch %d, ground truth diverges at %d", blamed, expected)
	}
	return nil
}

// drain waits until every report the fabric emitted has been counted by a
// collector incarnation — the progressive counter-fold oracle.
func (e *engine) drain(i int) *Failure {
	want := e.relay.Sent()
	deadline := time.Now().Add(drainTimeout)
	for {
		got := e.receivedPrev + e.malformedPrev
		if e.collector != nil {
			got += e.collector.Received() + e.collector.Malformed()
		}
		if got == want {
			break
		}
		if time.Now().After(deadline) {
			return failf(i, OracleCounterFold,
				"collector counted %d of %d sent reports after %v", got, want, drainTimeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if m := e.malformedCount(); m != 0 {
		return failf(i, OracleCounterFold, "%d malformed datagrams on a loopback pipeline", m)
	}
	return nil
}

func (e *engine) malformedCount() uint64 {
	m := e.malformedPrev
	if e.collector != nil {
		m += e.collector.Malformed()
	}
	return m
}

// checkGoroutines waits for the goroutine count to settle back to the
// pre-deployment baseline.
func (e *engine) checkGoroutines(i int, when string) *Failure {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= e.baseGoroutines {
			return nil
		}
		if time.Now().After(deadline) {
			return failf(i, OracleNoLeak,
				"%d goroutines after %s, baseline %d", n, when, e.baseGoroutines)
		}
		time.Sleep(time.Millisecond)
	}
}

// teardown drains and stops the pipeline, then checks the terminal folds:
// handler invocations equal received reports equal sent reports, and the
// goroutine count returns to baseline.
func (e *engine) teardown() (*Failure, error) {
	last := e.res.Steps
	if f := e.drain(last); f != nil {
		_ = e.stopCollector()
		return f, nil
	}
	if err := e.stopCollector(); err != nil {
		return nil, err
	}
	if got, want := e.receivedPrev, e.relay.Sent(); got != want {
		return failf(last, OracleCounterFold,
			"collectors received %d reports, fabric sent %d", got, want), nil
	}
	if got, want := e.handled.Load(), e.receivedPrev; got != want {
		return failf(last, OracleCounterFold,
			"handler ran %d times, collectors received %d", got, want), nil
	}
	if m := e.malformedPrev; m != 0 {
		return failf(last, OracleCounterFold, "%d malformed datagrams", m), nil
	}
	return e.checkGoroutines(last, "teardown"), nil
}

// samePaths reports hop-exact path equality.
func samePaths(a, b topo.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// containsPath reports whether any candidate equals the ground-truth path.
func containsPath(candidates []topo.Path, actual topo.Path) bool {
	for _, c := range candidates {
		if samePaths(c, actual) {
			return true
		}
	}
	return false
}

// pick draws a bounded index from the step RNG. The explicit range check
// is the sanitizing step for wire-derived Pick seeds: no campaign file
// content can drive an out-of-range index.
func pick(rng *rand.Rand, n int) int {
	i := rng.Intn(n)
	if i < 0 || i >= n {
		return 0
	}
	return i
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Incremental path-table update experiment (Figure 14). Per §6.5: populate
// eight of Internet2's nine routers, leave the ninth empty, then install
// its rules one-by-one, measuring the time to update the path table for
// each rule. The paper reports most updates under 10 ms; the comparison
// point is a full rebuild.

package sim

import (
	"fmt"
	"time"

	"veridp/internal/core"
	"veridp/internal/flowtable"
	"veridp/internal/openflow"
	"veridp/internal/topo"
)

// UpdateMeasurement is one Figure 14 data point.
type UpdateMeasurement struct {
	RuleIndex int
	Prefix    flowtable.Prefix
	Duration  time.Duration
}

// UpdateExperimentResult aggregates the Figure 14 run.
type UpdateExperimentResult struct {
	Target       string // the initially-empty router
	Measurements []UpdateMeasurement
	RebuildTime  time.Duration // full Algorithm 2 rebuild, for comparison
}

// Percentile returns the p-quantile (0..1) of per-rule update times.
func (r UpdateExperimentResult) Percentile(p float64) time.Duration {
	if len(r.Measurements) == 0 {
		return 0
	}
	ds := make([]time.Duration, len(r.Measurements))
	for i, m := range r.Measurements {
		ds[i] = m.Duration
	}
	for i := 1; i < len(ds); i++ { // insertion sort; n is small enough
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	idx := int(p * float64(len(ds)-1))
	return ds[idx]
}

// IncrementalUpdate runs the Figure 14 experiment on an Internet2-like
// environment: strip the target router's rules from the monitor's copy of
// the configuration, build the table, then re-add the rules one FlowAdd at
// a time through core.Handle.ApplyFlowMod — the path a live server runs,
// which takes each rule's difference (§4.4) and publishes a snapshot per
// update.
func IncrementalUpdate(scale Internet2Scale, targetRouter string) (*UpdateExperimentResult, error) {
	e, err := Internet2Env(scale, defaultBloom())
	if err != nil {
		return nil, err
	}
	res, _, err := e.incrementalUpdate(targetRouter)
	return res, err
}

// incrementalUpdate is IncrementalUpdate on e. It also returns the
// monitor's Handle, whose snapshot then describes e's data plane again.
func (e *Env) incrementalUpdate(targetRouter string) (*UpdateExperimentResult, *core.Handle, error) {
	target := e.Net.SwitchByName(targetRouter)
	if target == nil {
		return nil, nil, fmt.Errorf("sim: unknown router %q", targetRouter)
	}
	configs := make(map[topo.SwitchID]*flowtable.SwitchConfig, len(e.Ctrl.Logical()))
	for sw, cfg := range e.Ctrl.Logical() {
		configs[sw] = cfg.Clone()
	}
	rules := configs[target.ID].Table.Rules()
	configs[target.ID].Table = flowtable.NewTable()
	h := core.NewHandle((&core.Builder{Net: e.Net, Space: e.Space, Params: e.Params, Configs: configs}).Build())

	res := &UpdateExperimentResult{Target: targetRouter}
	for i, r := range rules {
		f := &openflow.FlowMod{Command: openflow.FlowAdd, Switch: target.ID, RuleID: r.ID, Rule: *r}
		start := time.Now()
		if err := h.ApplyFlowMod(target.ID, f); err != nil {
			return nil, nil, err
		}
		res.Measurements = append(res.Measurements, UpdateMeasurement{
			RuleIndex: i,
			Prefix:    r.Match.DstPrefix,
			Duration:  time.Since(start),
		})
	}

	start := time.Now()
	e.Build()
	res.RebuildTime = time.Since(start)
	return res, h, nil
}

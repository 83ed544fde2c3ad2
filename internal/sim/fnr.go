// Detection-accuracy experiment (Figure 12). Methodology from §6.3: pick
// random paths from the path table, synthesize one packet per path, force a
// random switch on the path to output it to a wrong port, and measure
//
//	absolute FNR = n2 / n      relative FNR = n2 / n1
//
// where n is the number of faulted packets, n1 the number that still
// arrive at the intended destination port, and n2 the number that arrive
// AND carry a tag identical to the path table's (Bloom collisions). The
// experiment sweeps the Bloom filter size from 8 to 64 bits.

package sim

import (
	"fmt"
	"math/rand"

	"veridp/internal/bloom"
	"veridp/internal/dataplane"
	"veridp/internal/header"
	"veridp/internal/topo"
	"veridp/internal/traffic"
)

// FNRPoint is one measurement of Figure 12.
type FNRPoint struct {
	MBits          int
	Trials         int // n: faulted packets injected
	Arrived        int // n1: still reached the intended destination port
	FalseNegatives int // n2: arrived and the tag matched
}

// Absolute returns n2/n.
func (p FNRPoint) Absolute() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.FalseNegatives) / float64(p.Trials)
}

// Relative returns n2/n1.
func (p FNRPoint) Relative() float64 {
	if p.Arrived == 0 {
		return 0
	}
	return float64(p.FalseNegatives) / float64(p.Arrived)
}

// FalseNegativeSweep measures FNRPoints for each tag size over the
// environment. The environment's fabric and table are re-tagged per size
// and restored to the original params afterwards.
func FalseNegativeSweep(e *Env, sizes []int, trials int, seed int64) ([]FNRPoint, error) {
	pt := e.Table()
	orig := e.Params
	defer func() {
		e.Fabric.SetParams(orig)
		pt.SetParams(orig)
	}()

	var out []FNRPoint
	for _, m := range sizes {
		params := bloom.Params{MBits: m}
		if err := params.Validate(); err != nil {
			return nil, err
		}
		e.Fabric.SetParams(params)
		pt.SetParams(params)
		// SetParams re-tags into new path entries: witnesses drawn before
		// it would still carry the previous size's tags.
		witnesses := deliveredWitnesses(e)
		if len(witnesses) == 0 {
			return nil, fmt.Errorf("sim: no delivered witness paths in %s", e.Name)
		}
		rng := NewRNG(seed + int64(m))
		point := FNRPoint{MBits: m}

		for trial := 0; trial < trials; trial++ {
			w := witnesses[rng.Intn(len(witnesses))]
			hopIdx := rng.Intn(len(w.Entry.Path))
			hop := w.Entry.Path[hopIdx]
			sw := e.Fabric.Switch(hop.Switch)
			wrong, ok := wrongPortFor(e.Net.Switch(hop.Switch), hop.Out, rng)
			if !ok {
				continue
			}
			point.Trials++
			hdr := w.Header
			sw.OutputOverride = func(in topo.PortID, h header.Header, out topo.PortID) topo.PortID {
				if h == hdr && in == hop.In && out == hop.Out {
					return wrong
				}
				return out
			}
			res, err := e.Fabric.Inject(w.Inport, w.Header)
			sw.OutputOverride = nil
			if err != nil {
				return nil, err
			}
			intendedExit := topo.PortKey{
				Switch: w.Entry.Path[len(w.Entry.Path)-1].Switch,
				Port:   w.Entry.Path[len(w.Entry.Path)-1].Out,
			}
			if res.Outcome != dataplane.OutcomeDelivered || res.Exit != intendedExit {
				continue
			}
			point.Arrived++
			if len(res.Reports) > 0 && res.Reports[len(res.Reports)-1].Tag == w.Entry.Tag {
				point.FalseNegatives++
			}
		}
		out = append(out, point)
	}
	return out, nil
}

// deliveredWitnesses returns witnesses for paths that end at a host edge
// port (the only paths for which "arrives at the destination port" is
// meaningful).
func deliveredWitnesses(e *Env) []traffic.Witness {
	all := traffic.Witnesses(e.Table())
	out := all[:0]
	for _, w := range all {
		last := w.Entry.Path[len(w.Entry.Path)-1]
		if e.Net.IsEdgePort(topo.PortKey{Switch: last.Switch, Port: last.Out}) {
			out = append(out, w)
		}
	}
	return out
}

// wrongPortFor picks a random real port other than the original.
func wrongPortFor(sw *topo.Switch, orig topo.PortID, rng *rand.Rand) (topo.PortID, bool) {
	var choices []topo.PortID
	for _, p := range sw.Ports() {
		if p != orig {
			choices = append(choices, p)
		}
	}
	if len(choices) == 0 {
		return 0, false
	}
	return choices[rng.Intn(len(choices))], true
}

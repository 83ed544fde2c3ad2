// Command pathtable builds a path table for a chosen topology and dumps
// its statistics, how long Algorithm 2 took, and (optionally) its entries
// — the operator-facing view of what the control plane believes about
// every edge-to-edge path.
//
//	pathtable -topo figure5 -dump
//	pathtable -topo stanford
//	pathtable -file mynet.json -dump
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"veridp/internal/bloom"
	"veridp/internal/core"
	"veridp/internal/netfile"
	"veridp/internal/sim"
	"veridp/internal/topo"
)

var (
	topoName = flag.String("topo", "figure5", "topology: fattree4|fattree6|stanford|internet2|figure5")
	file     = flag.String("file", "", "load topology+rules from a netfile JSON document instead of -topo")
	dump     = flag.Bool("dump", false, "dump every path entry")
	mbits    = flag.Int("mbits", 16, "Bloom tag size in bits")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pathtable:", err)
		os.Exit(1)
	}
}

func run() error {
	params := bloom.Params{MBits: *mbits}
	if err := params.Validate(); err != nil {
		return err
	}
	e, err := buildEnv(params)
	if err != nil {
		return err
	}

	start := time.Now()
	pt := e.Build()
	elapsed := time.Since(start)
	st := pt.Stats()
	fmt.Printf("topology:   %s (%d switches, %d links, %d hosts)\n",
		e.Name, e.Net.NumSwitches(), e.Net.NumLinks(), len(e.Net.Hosts()))
	fmt.Printf("entries:    %d port pairs\n", st.Pairs)
	fmt.Printf("paths:      %d\n", st.Paths)
	fmt.Printf("avg length: %.2f hops\n", st.AvgPathLength)
	fmt.Printf("built in:   %v\n", elapsed)

	if !*dump {
		return nil
	}
	fmt.Println()
	name := func(pk topo.PortKey) string {
		sw := e.Net.Switch(pk.Switch)
		if sw == nil {
			return pk.String()
		}
		return fmt.Sprintf("%s:%s", sw.Name, pk.Port)
	}
	pt.Entries(func(in, out topo.PortKey, pe *core.PathEntry) {
		headers := e.Space.T.SatCount(pe.Headers)
		fmt.Printf("%s → %s  tag=%v  |headers|=%.3g\n  %v\n", name(in), name(out), pe.Tag, headers, pe.Path)
	})
	return nil
}

func buildEnv(params bloom.Params) (*sim.Env, error) {
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		n, rules, err := netfile.Load(f)
		if err != nil {
			return nil, err
		}
		e := sim.CustomEnv(*file, n, params)
		if _, err := netfile.InstallRules(n, e.Ctrl, rules); err != nil {
			return nil, err
		}
		return e, nil
	}
	switch *topoName {
	case "fattree4":
		return sim.FatTreeEnv(4, params)
	case "fattree6":
		return sim.FatTreeEnv(6, params)
	case "stanford":
		return sim.StanfordEnv(sim.StanfordDefault, params)
	case "internet2":
		return sim.Internet2Env(sim.Internet2Default, params)
	case "figure5":
		return sim.Figure5Env(params)
	default:
		return nil, fmt.Errorf("unknown topology %q", *topoName)
	}
}

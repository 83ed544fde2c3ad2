// Command veridp-sim runs one end-to-end emulation: build a topology,
// compile and install routes, optionally inject a data-plane fault, drive
// an all-pairs ping mesh, and print the verification and localization
// summary. It is the quickest way to watch VeriDP catch an inconsistency.
//
// With -dump it stops after the path table instead: the summary line, how
// long Algorithm 2 took, and every path entry — the operator-facing view
// of what the control plane believes about every edge-to-edge path.
//
//	veridp-sim -topo fattree4 -fault wrongport
//	veridp-sim -topo stanford -fault blackhole -seed 7
//	veridp-sim -topo figure5 -dump
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"veridp/internal/bloom"
	"veridp/internal/core"
	"veridp/internal/dataplane"
	"veridp/internal/faults"
	"veridp/internal/netfile"
	"veridp/internal/pcap"
	"veridp/internal/sim"
	"veridp/internal/topo"
	"veridp/internal/traffic"
)

var (
	topoName = flag.String("topo", "fattree4", "topology: fattree4|fattree6|stanford|internet2|figure5")
	file     = flag.String("file", "", "load topology+rules from a netfile JSON document instead of -topo")
	fault    = flag.String("fault", "wrongport", "fault to inject: none|wrongport|blackhole|evict")
	seed     = flag.Int64("seed", 1, "RNG seed for fault selection")
	mbits    = flag.Int("mbits", 16, "Bloom tag size in bits")
	verbose  = flag.Bool("v", false, "print every violation")
	pcapPath = flag.String("pcap", "", "capture injected and delivered frames to a pcap file")
	dump     = flag.Bool("dump", false, "print the build time and every path entry after the summary line, then exit")
)

func main() {
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "veridp-sim:", err)
		os.Exit(1)
	}
}

// portName renders a switch port as name:port.
func portName(n *topo.Network, pk topo.PortKey) string {
	if sw := n.Switch(pk.Switch); sw != nil {
		return fmt.Sprintf("%s:%s", sw.Name, pk.Port)
	}
	return pk.String()
}

func run(ctx context.Context) error {
	params := bloom.Params{MBits: *mbits}
	if err := params.Validate(); err != nil {
		return err
	}

	var opts []dataplane.Option
	if *pcapPath != "" {
		out, err := os.Create(*pcapPath)
		if err != nil {
			return err
		}
		defer out.Close()
		w, err := pcap.NewWriter(out)
		if err != nil {
			return err
		}
		opts = append(opts, dataplane.WithCapture(func(ts time.Time, frame []byte) {
			w.WritePacket(ts, frame)
		}))
	}

	var (
		e   *sim.Env
		err error
	)
	if *file != "" {
		f, ferr := os.Open(*file)
		if ferr != nil {
			return ferr
		}
		var rules []netfile.RuleSpec
		var n *topo.Network
		n, rules, err = netfile.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		e = sim.CustomEnv(*file, n, params, opts...)
		if _, err := netfile.InstallRules(n, e.Ctrl, rules); err != nil {
			return err
		}
	} else {
		switch *topoName {
		case "fattree4":
			e, err = sim.FatTreeEnv(4, params, opts...)
		case "fattree6":
			e, err = sim.FatTreeEnv(6, params, opts...)
		case "stanford":
			e, err = sim.StanfordEnv(sim.StanfordDefault, params, opts...)
		case "internet2":
			e, err = sim.Internet2Env(sim.Internet2Default, params, opts...)
		case "figure5":
			e, err = sim.Figure5Env(params, opts...)
		default:
			return fmt.Errorf("unknown topology %q", *topoName)
		}
		if err != nil {
			return err
		}
	}
	start := time.Now()
	pt := e.Table()
	built := time.Since(start)
	st := pt.Stats()
	fmt.Printf("topology %s: %d switches, %d hosts; path table: %d pairs, %d paths (avg len %.2f)\n",
		e.Name, e.Net.NumSwitches(), len(e.Net.Hosts()), st.Pairs, st.Paths, st.AvgPathLength)
	if *dump {
		fmt.Printf("built in %v\n", built)
		pt.Entries(func(in, out topo.PortKey, pe *core.PathEntry) {
			fmt.Printf("%s → %s  tag=%v  |headers|=%.3g\n  %v\n", portName(e.Net, in), portName(e.Net, out), pe.Tag, e.Space.T.SatCount(pe.Headers), pe.Path)
		})
		return nil
	}

	rng := sim.NewRNG(*seed)
	var injected *faults.Injected
	if *fault != "none" {
		sw, ruleID, ok := faults.RandomRule(e.Fabric, rng)
		if !ok {
			return fmt.Errorf("no rules to fault")
		}
		var inj faults.Injected
		switch *fault {
		case "wrongport":
			inj, err = faults.WrongPort(e.Fabric, sw, ruleID, rng)
		case "blackhole":
			inj, err = faults.Blackhole(e.Fabric, sw, ruleID)
		case "evict":
			inj, err = faults.Evict(e.Fabric, sw, ruleID)
		default:
			return fmt.Errorf("unknown fault %q", *fault)
		}
		if err != nil {
			return err
		}
		injected = &inj
		fmt.Printf("injected fault: %v (switch %s)\n", inj, e.Net.Switch(inj.Switch).Name)
	}

	mesh := traffic.PingMesh(e.Net)
	bv := sim.NewBatchVerifier(e.Handle().Current())
	var delivered, dropped, looped, verified, violated, localized, correct int
	blamed := map[string]int{}
	for _, ping := range mesh {
		// An interrupt mid-mesh stops cleanly between pings; each inject
		// is synchronous, so nothing is left in flight.
		if err := ctx.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "veridp-sim: interrupted, stopping after",
				delivered+dropped+looped, "of", len(mesh), "pings")
			return err
		}
		res, err := e.Fabric.InjectFromHost(ping.SrcHost, ping.Header)
		if err != nil {
			return err
		}
		switch res.Outcome.String() {
		case "delivered":
			delivered++
		case "dropped":
			dropped++
		case "looped":
			looped++
		}
		verdicts := bv.Verdicts(res.Reports)
		for i, rep := range res.Reports {
			v := verdicts[i]
			if v.OK {
				verified++
				continue
			}
			violated++
			sw, _, ok := pt.Localize(rep)
			if ok {
				localized++
				name := e.Net.Switch(sw).Name
				blamed[name]++
				if injected != nil && sw == injected.Switch {
					correct++
				}
				if *verbose {
					fmt.Printf("  VIOLATION %v: %v → blamed %s\n", v.Reason, rep, name)
				}
			} else if *verbose {
				fmt.Printf("  VIOLATION %v: %v (no candidate path)\n", v.Reason, rep)
			}
		}
	}

	fmt.Printf("pings: %d (delivered %d, dropped %d, looped %d)\n", len(mesh), delivered, dropped, looped)
	fmt.Printf("reports verified: %d, violations: %d\n", verified, violated)
	if violated > 0 {
		fmt.Printf("localized: %d/%d", localized, violated)
		if injected != nil {
			fmt.Printf(" (%d blamed the injected switch)", correct)
		}
		fmt.Println()
		for name, n := range blamed {
			fmt.Printf("  blamed %-12s %d times\n", name, n)
		}
	}
	if injected == nil && violated > 0 {
		return fmt.Errorf("violations on a healthy network — this is a bug")
	}
	if injected != nil && violated == 0 {
		fmt.Println("note: the injected fault was not exercised by the ping mesh (try another -seed)")
	}
	return nil
}

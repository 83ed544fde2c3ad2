// Command bench is the socket-level load benchmark of the real
// veridp-server: it builds ./cmd/veridp-server, runs it as a subprocess
// with its default flags, plays the controller, every switch and the
// report senders itself, and reads results only from outside the process.
// A traced run adds an in-process mirror of the server's wiring with a
// span at each layer boundary. See README.md.
//
//	bash bench/run.sh --workload zipf_steady --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -suite a.json -runs 10
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wname   = flag.String("workload", "zipf_steady", "zipf_steady|uniform_steady|zipf_churn|fault_mix")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 20, "measured seconds (paced + saturate)")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
		quick   = flag.Bool("quick", false, "smoke scale: fattree4, small population, one set-up")
		suite   = flag.String("suite", "", "run every workload -runs times and write all results to this file")
		runs    = flag.Int("runs", 10, "with -suite: runs per workload, seeds seed..seed+runs-1")
		compare = flag.Bool("compare", false, "compare two -suite files given as arguments")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args(), os.Stdout)
	case *suite != "":
		err = runSuite(ctx, *suite, *seed, *runs, *seconds)
	default:
		err = runOnce(ctx, *wname, *seed, *seconds, *trace == 1, *quick)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOnce is the benchmark contract: one workload, one seed, one result
// line. A breached output check still prints the result, with correct
// false; only a harness or environment error exits non-zero.
func runOnce(ctx context.Context, wname string, seed int64, seconds float64, trace, quick bool) error {
	res, err := measure(ctx, wname, seed, seconds, trace, quick)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

func measure(ctx context.Context, wname string, seed int64, seconds float64, trace, quick bool) (*result, error) {
	w, ok := findWorkload(wname)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", wname)
	}
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds %v: need at least 1", seconds)
	}
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	cfg := config{w: w, seed: seed, seconds: seconds, trace: trace, quick: quick}
	if cfg.bin, err = buildServer(ctx, root); err != nil {
		return nil, err
	}
	rs, err := buildRuleSet(cfg.topo())
	if err != nil {
		return nil, err
	}

	chk := &checks{}
	run, err := runServer(ctx, cfg, rs, chk)
	if err != nil {
		return nil, err
	}
	run.adequacy(chk)
	res := &result{Attempted: run.attempted()}
	if !trace {
		res.Metrics = run.endToEnd()
	} else {
		res.Metrics = run.serverLayers()
		tr := newTracer(w.name)
		layers, err := runMirror(ctx, cfg, rs, run, tr)
		if err != nil {
			return nil, err
		}
		for k, v := range layers {
			res.Metrics[k] = v
		}
		if err := tr.write(filepath.Join(root, "bench", "out")); err != nil {
			return nil, err
		}
	}
	for _, f := range chk.failures {
		fmt.Fprintln(os.Stderr, "bench: CHECK FAILED:", f)
	}
	res.Failed = chk.failed
	res.Correct = len(chk.failures) == 0
	return res, nil
}

package main

// -suite runs every workload several times, each run its own process, and
// keeps every value; -compare sets two such files side by side, per
// workload and end-to-end metric, against the bounds in BENCHMARK.json.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"text/tabwriter"
)

// suiteFile is what -suite writes: for each workload, every run's value of
// every metric, end-to-end from the untraced runs and per-layer from the
// traced one.
type suiteFile struct {
	Seed      int64                     `json:"seed"`
	Runs      int                       `json:"runs"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]*suiteWorkload `json:"workloads"`
}

type suiteWorkload struct {
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
	Units     map[string]string    `json:"units"`
	Attempted []uint64             `json:"attempted"`
	Failed    []uint64             `json:"failed"`
	Incorrect int                  `json:"incorrect"`
}

// runSuite executes this binary once per run, as the driver would.
func runSuite(ctx context.Context, out string, seed int64, runs int, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sf := &suiteFile{Seed: seed, Runs: runs, Seconds: seconds, Workloads: make(map[string]*suiteWorkload)}
	one := func(w string, seed int64, trace int) (*result, error) {
		cmd := exec.CommandContext(ctx, self,
			"--workload", w, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s seed %d trace %d: %w", w, seed, trace, err)
		}
		lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
		}
		return &res, nil
	}
	for _, w := range workloads {
		sw := &suiteWorkload{EndToEnd: make(map[string][]float64), PerLayer: make(map[string]float64), Units: make(map[string]string)}
		sf.Workloads[w.name] = sw
		for i := 0; i < runs; i++ {
			res, err := one(w.name, seed+int64(i), 0)
			if err != nil {
				return err
			}
			for k, m := range res.Metrics {
				sw.EndToEnd[k] = append(sw.EndToEnd[k], m.Value)
				sw.Units[k] = m.Unit
			}
			sw.Attempted = append(sw.Attempted, res.Attempted)
			sw.Failed = append(sw.Failed, res.Failed)
			if !res.Correct {
				sw.Incorrect++
			}
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d done\n", w.name, i+1, runs)
		}
		res, err := one(w.name, seed, 1)
		if err != nil {
			return err
		}
		for k, m := range res.Metrics {
			sw.PerLayer[k] = m.Value
			sw.Units[k] = m.Unit
		}
		if !res.Correct {
			sw.Incorrect++
		}
	}
	b, err := json.MarshalIndent(sf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

// benchmarkJSON is the part of BENCHMARK.json -compare needs.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spread is the interquartile range over the median, the driver's measure
// of run-to-run noise (Python's statistics.quantiles(v, n=4), exclusive).
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := int(pos)
		if lo < 0 {
			return s[0]
		}
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return ratio(q(0.75)-q(0.25), median(s))
}

func readSuite(path string) (*suiteFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf suiteFile
	if err := json.Unmarshal(b, &sf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sf, nil
}

// runCompare prints, per workload × end-to-end metric, both medians, the
// ratio with its base, both spreads, and whether b is within the metric's
// bound of a, regressed, or unresolved (a spread wider than the bound).
func runCompare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two -suite files")
	}
	a, err := readSuite(args[0])
	if err != nil {
		return err
	}
	b, err := readSuite(args[1])
	if err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta (base)\tb\tb/a\tspread a\tspread b\tbound\tverdict\n")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s missing from one file", wl.name)
		}
		for _, m := range bj.EndToEnd {
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s/%s missing from one file", wl.name, m.Name)
			}
			ma, mb := median(va), median(vb)
			sa, sb := spread(va), spread(vb)
			worse := ratio(mb-ma, ma) // share of the base by which b is worse
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within-bound"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f\t%.4f\t%.4f\t%.2f\t%s\n",
				wl.name, m.Name, ma, mb, ratio(mb, ma), sa, sb, m.Bound, verdict)
		}
		fmt.Fprintf(tw, "%s\tfailed ops (max)\t%d\t%d\t\t\t\t\t\n", wl.name, maxOf(wa.Failed), maxOf(wb.Failed))
	}
	return tw.Flush()
}

func maxOf(v []uint64) uint64 {
	var m uint64
	for _, x := range v {
		m = max(m, x)
	}
	return m
}

package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// contract is the part of BENCHMARK.json a result line must match.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestQuickSmoke runs the harness at smoke scale (fattree4, 2 s phases)
// against the real server binary: it must start the server, fold the
// counters with every output check passing, and emit exactly the metrics
// BENCHMARK.json names, with their units.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the real server over sockets")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		workload string
		trace    bool
		want     []struct{ Name, Unit string }
	}{
		{"zipf_churn", false, c.EndToEnd},
		{"fault_mix", true, c.PerLayer},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			res, err := measure(context.Background(), tc.workload, 1, 4, tc.trace, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(tc.want) {
				t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(tc.want))
			}
			for _, m := range tc.want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("metric %s missing", m.Name)
				} else if got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("metric %s = %v %q, want a finite value in %q", m.Name, got.Value, got.Unit, m.Unit)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("result does not marshal: %v", err)
			}
		})
	}
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(v, n=4):
// for 1..10 the quartiles are 2.75 and 8.25 and the median 5.5.
func TestSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

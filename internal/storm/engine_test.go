package storm

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestStormShortCampaign is the standing fuzz smoke: a 200-step ft6
// campaign covering the whole op mix must pass every oracle. It runs
// under -race in `make check`, where the shadow verifiers in the
// maintenance ops and the concurrent collector handler do their real work.
func TestStormShortCampaign(t *testing.T) {
	c := Generate("ft6", 7, 200, 2, GenOptions{})
	res, err := Run(context.Background(), c, t.Logf)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failure != nil {
		data, _ := Encode(c)
		t.Fatalf("oracle failure: %s\ncampaign for replay:\n%s", res.Failure, data)
	}
	if res.Steps != 200 {
		t.Fatalf("executed %d of 200 steps", res.Steps)
	}
	if res.Reports == 0 {
		t.Fatal("campaign produced no reports")
	}
	if res.Violated == 0 {
		t.Fatal("200 steps of fault injection tripped no verification — oracles are blind")
	}
	if res.Localized == 0 {
		t.Fatal("no violation was localized")
	}
	if res.Reruns != 0 {
		t.Fatalf("no campaign op rewrites headers, yet %d FlowMods re-ran Algorithm 2", res.Reruns)
	}
}

// TestCampaignDeterminism is the replay contract: the same campaign run
// twice produces byte-identical verdict traces and identical counters.
func TestCampaignDeterminism(t *testing.T) {
	c := Generate("ft4", 5, 60, 3, GenOptions{})
	a, err := Run(context.Background(), c, nil)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(context.Background(), c, nil)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.Failure != nil || b.Failure != nil {
		t.Fatalf("unexpected failures: %v / %v", a.Failure, b.Failure)
	}
	if !bytes.Equal(a.Trace, b.Trace) {
		t.Fatalf("same campaign, different traces:\n--- a\n%s--- b\n%s", a.Trace, b.Trace)
	}
	if len(a.Trace) == 0 {
		t.Fatal("empty trace")
	}
	if a.Probes != b.Probes || a.Reports != b.Reports ||
		a.Verified != b.Verified || a.Violated != b.Violated || a.Localized != b.Localized {
		t.Fatalf("counter mismatch: %+v vs %+v", a, b)
	}
}

// TestStepSelfContainment is the minimizer's prerequisite: a step's
// behavior depends only on its own Pick, so a subsequence replays
// identically. The suffix of a campaign's trace must match the trace of
// the suffix alone when the dropped prefix did not change state.
func TestStepSelfContainment(t *testing.T) {
	full := &Campaign{
		Version: Version, Topo: "ft4", MBits: 64, Probes: 2, Seed: 1,
		Steps: []Step{
			{Op: OpCompact, Pick: 11}, // no state change: nothing installed yet
			{Op: OpSampleShift, Pick: 22},
			{Op: OpChurnInstall, Pick: 33},
		},
	}
	sub := &Campaign{
		Version: Version, Topo: "ft4", MBits: 64, Probes: 2, Seed: 1,
		Steps: []Step{
			{Op: OpSampleShift, Pick: 22},
			{Op: OpChurnInstall, Pick: 33},
		},
	}
	a, err := Run(context.Background(), full, nil)
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	b, err := Run(context.Background(), sub, nil)
	if err != nil {
		t.Fatalf("sub: %v", err)
	}
	// Trace lines are prefixed with the step index; drop the full run's
	// step-0 lines and the prefixes, then the remainders must match.
	want := stripStepPrefix(t, a.Trace, "step=0000 ")
	got := stripStepPrefix(t, b.Trace, "")
	if len(want) == 0 || len(want) != len(got) {
		t.Fatalf("trace line counts: full-without-step0 %d, subsequence %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("line %d: subsequence replayed differently:\n%s\n%s", i, got[i], want[i])
		}
	}
}

// stripStepPrefix splits a trace, drops lines carrying the skip prefix,
// and strips the "step=NNNN " prefix from the rest.
func stripStepPrefix(t *testing.T, trace []byte, skip string) []string {
	t.Helper()
	lines := bytes.Split(bytes.TrimSuffix(trace, []byte("\n")), []byte("\n"))
	out := make([]string, 0, len(lines))
	for _, l := range lines {
		if skip != "" && bytes.HasPrefix(l, []byte(skip)) {
			continue
		}
		i := bytes.IndexByte(l, ' ')
		if i < 0 {
			t.Fatalf("malformed trace line %q", l)
		}
		out = append(out, string(l[i+1:]))
	}
	return out
}

// TestReplayMinimizedRegression replays the committed ddmin output: the
// one-step desync campaign must still trip the no-false-positive oracle
// at step 0 — the self-test that proves the failure path works end to end.
func TestReplayMinimizedRegression(t *testing.T) {
	c := loadCampaign(t, "min-desync.json")
	res, err := Run(context.Background(), c, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failure == nil {
		t.Fatal("minimized regression campaign no longer fails")
	}
	if res.Failure.Oracle != OracleNoFalsePositive {
		t.Fatalf("failed oracle %s, want %s", res.Failure.Oracle, OracleNoFalsePositive)
	}
	if res.Failure.Step != 0 {
		t.Fatalf("failure at step %d of a 1-step campaign", res.Failure.Step)
	}
}

// TestReplayPassingCorpus replays the committed passing campaign.
func TestReplayPassingCorpus(t *testing.T) {
	c := loadCampaign(t, "seed1.json")
	res, err := Run(context.Background(), c, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failure != nil {
		t.Fatalf("corpus campaign failed: %s", res.Failure)
	}
	if res.Steps != len(c.Steps) {
		t.Fatalf("executed %d of %d steps", res.Steps, len(c.Steps))
	}
}

// TestRunRejects covers the harness-error paths.
func TestRunRejects(t *testing.T) {
	if _, err := Run(context.Background(), &Campaign{Version: 9}, nil); err == nil {
		t.Fatal("Run accepted an invalid campaign")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := Generate("ft4", 1, 5, 1, GenOptions{})
	if _, err := Run(ctx, c, nil); err == nil {
		t.Fatal("Run ignored a cancelled context")
	}
}

func loadCampaign(t *testing.T, name string) *Campaign {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "storm", name))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	c, err := Decode(data)
	if err != nil {
		t.Fatalf("decode %s: %v", name, err)
	}
	return c
}

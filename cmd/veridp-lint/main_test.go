package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scratch materializes a throwaway module, chdirs into it, and returns
// its directory. Each file is name → content.
func scratch(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module scratch\n\ngo 1.22\n"
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	return dir
}

// One lockedblock violation: a channel send under a held mutex.
const violation = `package scratch

import "sync"

type s struct {
	mu sync.Mutex
	ch chan int
}

func (x *s) f() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ch <- 1
}
`

func TestGoldenOutput(t *testing.T) {
	scratch(t, map[string]string{"main.go": violation})
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"./..."}); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	wantOut := "main.go:13:7: channel send while holding scratch.s.mu [lockedblock]\n"
	if stdout.String() != wantOut {
		t.Errorf("stdout = %q, want %q", stdout.String(), wantOut)
	}
	wantSummary := "veridp-lint: 1 finding(s), 0 suppressed, 0 baselined\n"
	if stderr.String() != wantSummary {
		t.Errorf("stderr = %q, want %q", stderr.String(), wantSummary)
	}
}

func TestJSONOutput(t *testing.T) {
	scratch(t, map[string]string{"main.go": violation})
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-json", "./..."}); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	var out jsonOutput
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout.String())
	}
	if len(out.Diagnostics) != 1 || out.Summary.Findings != 1 {
		t.Fatalf("diagnostics = %+v, want exactly one", out)
	}
	d := out.Diagnostics[0]
	if d.Checker != "lockedblock" || d.File != "main.go" || d.Line != 13 {
		t.Errorf("diagnostic = %+v, want lockedblock at main.go:13", d)
	}
}

func TestCheckerSelection(t *testing.T) {
	scratch(t, map[string]string{"main.go": violation})
	var stdout, stderr bytes.Buffer
	// The violation is a lockedblock finding; running only enumswitch
	// must come back clean.
	if code := run(&stdout, &stderr, []string{"-checkers", "enumswitch", "./..."}); code != 0 {
		t.Errorf("exit = %d, want 0\nstderr: %s", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(&stdout, &stderr, []string{"-c", "lockedblock", "./..."}); code != 1 {
		t.Errorf("exit = %d, want 1 from the shorthand flag", code)
	}
}

func TestUnknownCheckerExit2(t *testing.T) {
	scratch(t, map[string]string{"main.go": violation})
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-checkers", "nosuchpass", "./..."}); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown checker") {
		t.Errorf("stderr = %q, want unknown-checker error", stderr.String())
	}
}

func TestLoadErrorExit2(t *testing.T) {
	scratch(t, map[string]string{"main.go": "package scratch\n\nfunc broken( {\n"})
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"./..."}); code != 2 {
		t.Errorf("exit = %d, want 2\nstderr: %s", code, stderr.String())
	}
}

func TestBaselineWorkflow(t *testing.T) {
	dir := scratch(t, map[string]string{"main.go": violation})

	// Baseline the existing finding: subsequent runs are clean.
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-write-baseline", "lint.baseline", "./..."}); code != 0 {
		t.Fatalf("write-baseline exit = %d, want 0\nstderr: %s", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(&stdout, &stderr, []string{"-baseline", "lint.baseline", "./..."}); code != 0 {
		t.Fatalf("baselined run exit = %d, want 0\nstdout: %s", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), "1 baselined") {
		t.Errorf("stderr = %q, want the baselined count", stderr.String())
	}

	// A fresh violation in a new file fails the gate again.
	fresh := strings.ReplaceAll(violation, "type s struct", "type t struct")
	fresh = strings.ReplaceAll(fresh, "func (x *s)", "func (x *t)")
	if err := os.WriteFile(filepath.Join(dir, "extra.go"), []byte(fresh), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(&stdout, &stderr, []string{"-baseline", "lint.baseline", "./..."}); code != 1 {
		t.Fatalf("exit = %d, want 1 on a fresh finding\nstdout: %s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "extra.go") {
		t.Errorf("stdout = %q, want the fresh finding from extra.go", stdout.String())
	}
}

func TestPruneBaselineGolden(t *testing.T) {
	dir := scratch(t, map[string]string{"main.go": violation})

	// Baseline the finding, then add a stale hand-written entry for a
	// violation that does not exist. The gate tolerates stale entries
	// (they are only counted), but -prune-baseline must drop them.
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-write-baseline", "lint.baseline", "./..."}); code != 0 {
		t.Fatalf("write-baseline exit = %d, want 0\nstderr: %s", code, stderr.String())
	}
	path := filepath.Join(dir, "lint.baseline")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := "lockedblock\tgone.go\tchannel send while holding scratch.old.mu\n"
	if err := os.WriteFile(path, append(before, stale...), 0o644); err != nil {
		t.Fatal(err)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(&stdout, &stderr, []string{"-prune-baseline", "lint.baseline", "./..."}); code != 0 {
		t.Fatalf("prune-baseline exit = %d, want 0 even with findings present\nstderr: %s", code, stderr.String())
	}
	if got, want := stderr.String(), "veridp-lint: pruned lint.baseline: kept 1 entr(y/ies), dropped 1\n"; got != want {
		t.Errorf("stderr = %q, want %q", got, want)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The surviving file is byte-identical to the pre-tamper baseline:
	// header plus the one live entry, stale line gone.
	if !bytes.Equal(after, before) {
		t.Errorf("pruned baseline = %q, want the original %q", after, before)
	}

	// Pruning an already-clean baseline is a no-op that still exits 0.
	stdout.Reset()
	stderr.Reset()
	if code := run(&stdout, &stderr, []string{"-prune-baseline", "lint.baseline", "./..."}); code != 0 {
		t.Fatalf("idempotent prune exit = %d, want 0\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "kept 1 entr(y/ies), dropped 0") {
		t.Errorf("stderr = %q, want a dropped-0 no-op", stderr.String())
	}

	// A missing baseline file is a load failure: exit 2, not 0 or 1.
	stdout.Reset()
	stderr.Reset()
	if code := run(&stdout, &stderr, []string{"-prune-baseline", "nosuch.baseline", "./..."}); code != 2 {
		t.Errorf("prune of missing file exit = %d, want 2", code)
	}
}

func TestSuppressionCounted(t *testing.T) {
	suppressed := strings.Replace(violation, "\tx.ch <- 1\n",
		"\t//lint:ignore lockedblock exercising the suppression path\n\tx.ch <- 1\n", 1)
	scratch(t, map[string]string{"main.go": suppressed})
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"./..."}); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), "0 finding(s), 1 suppressed") {
		t.Errorf("stderr = %q, want the suppression counted in the summary", stderr.String())
	}
}

func TestStaleSuppressionsGolden(t *testing.T) {
	// One live suppression (it silences the real lockedblock finding) and
	// one stale directive excusing a violation that no longer exists.
	suppressed := strings.Replace(violation, "\tx.ch <- 1\n",
		"\t//lint:ignore lockedblock known send under lock\n\tx.ch <- 1\n", 1)
	stale := `package scratch

//lint:ignore lifecycle the goroutine this excused was removed
func nothingHere() {}
`
	scratch(t, map[string]string{"main.go": suppressed, "stale.go": stale})

	// Without the flag the tree is clean: the gate contract is unchanged.
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"./..."}); code != 0 {
		t.Fatalf("exit = %d, want 0 without the flag\nstderr: %s", code, stderr.String())
	}

	// Maintenance mode reports the stale directive and exits 1.
	stdout.Reset()
	stderr.Reset()
	if code := run(&stdout, &stderr, []string{"-stale-suppressions", "./..."}); code != 1 {
		t.Fatalf("exit = %d, want 1 in maintenance mode\nstderr: %s", code, stderr.String())
	}
	wantOut := "stale.go:3: stale //lint:ignore lifecycle (\"the goroutine this excused was removed\") silences nothing — remove it\n"
	if stdout.String() != wantOut {
		t.Errorf("stdout = %q, want %q", stdout.String(), wantOut)
	}
	wantSummary := "veridp-lint: 0 finding(s), 1 suppressed, 0 baselined, 1 stale suppression(s)\n"
	if stderr.String() != wantSummary {
		t.Errorf("stderr = %q, want %q", stderr.String(), wantSummary)
	}

	// A run restricted to checkers that exclude lifecycle must not condemn
	// the lifecycle suppression it never evaluated.
	stdout.Reset()
	stderr.Reset()
	if code := run(&stdout, &stderr, []string{"-stale-suppressions", "-checkers", "lockedblock", "./..."}); code != 0 {
		t.Fatalf("restricted run exit = %d, want 0\nstdout: %s", code, stdout.String())
	}

	// JSON carries the stale list and count.
	stdout.Reset()
	stderr.Reset()
	if code := run(&stdout, &stderr, []string{"-stale-suppressions", "-json", "./..."}); code != 1 {
		t.Fatalf("json run exit = %d, want 1", code)
	}
	var out jsonOutput
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout.String())
	}
	if len(out.StaleSuppressions) != 1 || out.Summary.StaleSuppressions != 1 {
		t.Fatalf("staleSuppressions = %+v, want exactly one", out)
	}
	s := out.StaleSuppressions[0]
	if s.File != "stale.go" || s.Line != 3 || len(s.Checkers) != 1 || s.Checkers[0] != "lifecycle" {
		t.Errorf("stale = %+v, want lifecycle at stale.go:3", s)
	}
}

// One relay type violating all three lifetime checkers at distinct
// lines: an unstoppable spawned sleep-loop (lifecycle), an unbounded
// redial loop (retrybound), and a write on a conn no caller arms
// (deadline).
const lifetimeViolations = `package scratch

import (
	"net"
	"time"
)

type relay struct {
	addr string
	conn net.Conn
}

func (r *relay) start() {
	go func() {
		for {
			time.Sleep(50 * time.Millisecond)
			r.flush()
		}
	}()
}

func (r *relay) reconnect() {
	for {
		c, err := net.Dial("tcp", r.addr)
		if err != nil {
			continue
		}
		r.conn = c
		return
	}
}

func (r *relay) flush() {
	if r.conn == nil {
		return
	}
	r.conn.Write([]byte("x"))
}
`

func TestCtxFlowGolden(t *testing.T) {
	scratch(t, map[string]string{"main.go": lifetimeViolations})
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-checkers", "lifecycle,deadline,retrybound", "./..."}); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	wantOut := "main.go:15:3: goroutine (spawned at main.go:14) loops forever into time.Sleep with no exit and no cancellation signal — accept and thread a context.Context or stop channel [lifecycle]\n" +
		"main.go:23:2: loop retries net.Dial without a bound: add an attempt counter, a deadline/context check, or a capped backoff [retrybound]\n" +
		"main.go:37:2: net.Conn.Write on r.conn reaches a caller (func@main.go:14 at main.go:17) that has not armed a write deadline; call SetWriteDeadline on every path or annotate `// lint:deadline conn=r.conn <reason>` [deadline]\n"
	if stdout.String() != wantOut {
		t.Errorf("stdout = %q, want %q", stdout.String(), wantOut)
	}
	wantSummary := "veridp-lint: 3 finding(s), 0 suppressed, 0 baselined\n"
	if stderr.String() != wantSummary {
		t.Errorf("stderr = %q, want %q", stderr.String(), wantSummary)
	}

	// The annotation routes govern: binding the conn's lifetime to a
	// documented owner silences deadline, and a `//lint:ignore` line
	// silences a finding while keeping it counted.
	annotated := strings.Replace(lifetimeViolations,
		"func (r *relay) flush() {",
		"// lint:deadline conn=r.conn the relay's watchdog closes conn on cancel\nfunc (r *relay) flush() {", 1)
	scratch(t, map[string]string{"main.go": annotated})
	stdout.Reset()
	stderr.Reset()
	if code := run(&stdout, &stderr, []string{"-checkers", "deadline", "./..."}); code != 0 {
		t.Fatalf("annotated exit = %d, want 0\nstdout: %s", code, stdout.String())
	}
}

func TestCtxFlowJSON(t *testing.T) {
	scratch(t, map[string]string{"main.go": lifetimeViolations})
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-json", "-checkers", "lifecycle,deadline,retrybound", "./..."}); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	var out jsonOutput
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout.String())
	}
	if len(out.Diagnostics) != 3 || out.Summary.Findings != 3 {
		t.Fatalf("diagnostics = %+v, want exactly three", out)
	}
	byChecker := map[string]int{}
	for _, d := range out.Diagnostics {
		byChecker[d.Checker] = d.Line
	}
	want := map[string]int{"lifecycle": 15, "retrybound": 23, "deadline": 37}
	for checker, line := range want {
		if byChecker[checker] != line {
			t.Errorf("%s fired at line %d, want %d (all: %+v)", checker, byChecker[checker], line, out.Diagnostics)
		}
	}
}

func TestListCheckers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-list"}); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"lockorder", "lockedblock", "lifecycle", "ctxprop", "chanflow", "wgsync", "tickleak"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output is missing checker %q", name)
		}
	}
}

// Three message-passing violations at distinct positions in one
// function: an unjustified buffered make (chanflow, line 9), a spawn
// whose Done has no preceding Add (wgsync, line 11), and a ticker that
// is never stopped (tickleak, line 17).
const chanProtocolViolations = `package scratch

import (
	"sync"
	"time"
)

func pump(events []int) {
	out := make(chan int, 8)
	var wg sync.WaitGroup
	go func() {
		defer wg.Done()
		for range events {
			out <- 1
		}
	}()
	t := time.NewTicker(time.Second)
	for range t.C {
		<-out
	}
	wg.Wait()
}
`

func TestChanProtocolGolden(t *testing.T) {
	scratch(t, map[string]string{"main.go": chanProtocolViolations})
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-checkers", "chanflow,wgsync,tickleak", "./..."}); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	wantOut := "main.go:9:9: buffered channel (cap 8) without a justification — annotate `// chan: buffered 8 — <reason>` or make it unbuffered [chanflow]\n" +
		"main.go:11:2: goroutine calls wg.Done but no wg.Add precedes the spawn — Add must be ordered before the go statement, or Wait can return early [wgsync]\n" +
		"main.go:17:7: time.NewTicker t is never stopped — the ticker outlives this function; defer t.Stop() [tickleak]\n"
	if stdout.String() != wantOut {
		t.Errorf("stdout = %q, want %q", stdout.String(), wantOut)
	}
	wantSummary := "veridp-lint: 3 finding(s), 0 suppressed, 0 baselined\n"
	if stderr.String() != wantSummary {
		t.Errorf("stderr = %q, want %q", stderr.String(), wantSummary)
	}

	// The annotation grammar governs: a justified buffer passes chanflow
	// with no suppression spent.
	annotated := strings.Replace(chanProtocolViolations,
		"\tout := make(chan int, 8)",
		"\t// chan: buffered 8 — absorbs an event burst while the drain loop ticks\n\tout := make(chan int, 8)", 1)
	scratch(t, map[string]string{"main.go": annotated})
	stdout.Reset()
	stderr.Reset()
	if code := run(&stdout, &stderr, []string{"-checkers", "chanflow", "./..."}); code != 0 {
		t.Fatalf("annotated exit = %d, want 0\nstdout: %s", code, stdout.String())
	}

	// `//lint:ignore` silences a finding but keeps it counted.
	ignored := strings.Replace(chanProtocolViolations,
		"\tgo func() {",
		"\t//lint:ignore wgsync the demo spawn is joined by the harness\n\tgo func() {", 1)
	scratch(t, map[string]string{"main.go": ignored})
	stdout.Reset()
	stderr.Reset()
	if code := run(&stdout, &stderr, []string{"-checkers", "wgsync", "./..."}); code != 0 {
		t.Fatalf("suppressed exit = %d, want 0\nstdout: %s", code, stdout.String())
	}
	if want := "veridp-lint: 0 finding(s), 1 suppressed, 0 baselined\n"; stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
}

func TestChanProtocolJSON(t *testing.T) {
	scratch(t, map[string]string{"main.go": chanProtocolViolations})
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-json", "-checkers", "chanflow,wgsync,tickleak", "./..."}); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	var out jsonOutput
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout.String())
	}
	if len(out.Diagnostics) != 3 || out.Summary.Findings != 3 {
		t.Fatalf("diagnostics = %+v, want exactly three", out)
	}
	want := map[string]int{"chanflow": 9, "wgsync": 11, "tickleak": 17}
	for _, d := range out.Diagnostics {
		if d.File != "main.go" || want[d.Checker] != d.Line {
			t.Errorf("%s fired at %s:%d, want main.go:%d", d.Checker, d.File, d.Line, want[d.Checker])
		}
	}
}

func TestChanProtocolBaselineRoundTrip(t *testing.T) {
	scratch(t, map[string]string{"main.go": chanProtocolViolations})
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-checkers", "chanflow,wgsync,tickleak", "-write-baseline", "lint.baseline", "./..."}); code != 0 {
		t.Fatalf("write-baseline exit = %d, want 0\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "wrote 3 finding(s)") {
		t.Errorf("write-baseline stderr = %q, want a 3-finding write notice", stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(&stdout, &stderr, []string{"-checkers", "chanflow,wgsync,tickleak", "-baseline", "lint.baseline", "./..."}); code != 0 {
		t.Fatalf("baselined exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if want := "veridp-lint: 0 finding(s), 0 suppressed, 3 baselined\n"; stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
}

package lint

import (
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The corpus harness: each checker owns a testdata/<name> directory
// holding one known-bad and one known-good file. Lines in bad.go carry
// `want "<substring>"` markers; the checker must produce a diagnostic
// containing the substring on every marked line and nothing anywhere
// else — in particular nothing in good.go.

var wantRe = regexp.MustCompile(`want "([^"]+)"`)

var (
	exportsOnce sync.Once
	exportsMap  map[string]string
	exportsErr  error
)

// corpusExports builds (once) the export-data map for everything the
// corpus imports: the module's own packages plus the stdlib packages the
// testdata files use directly.
func corpusExports(t *testing.T) map[string]string {
	t.Helper()
	exportsOnce.Do(func() {
		out, err := exec.Command("go", "env", "GOMOD").Output()
		if err != nil {
			exportsErr = err
			return
		}
		root := filepath.Dir(strings.TrimSpace(string(out)))
		exportsMap, _, exportsErr = GoList(root, "./...", "context", "time", "sync", "net", "io")
	})
	if exportsErr != nil {
		t.Fatalf("building corpus export data: %v", exportsErr)
	}
	return exportsMap
}

func TestCheckerCorpus(t *testing.T) {
	for _, a := range Analyzers {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			files, err := filepath.Glob(filepath.Join("testdata", a.Name, "*.go"))
			if err != nil || len(files) < 2 {
				t.Fatalf("corpus for %s: files=%v err=%v (want good.go and bad.go)", a.Name, files, err)
			}
			fset := token.NewFileSet()
			imp := NewImporter(fset, corpusExports(t))
			pkg, err := CheckFiles(fset, imp, "veridp/lint/corpus/"+a.Name, files)
			if err != nil {
				t.Fatal(err)
			}
			diags := Run([]*Package{pkg}, []*Analyzer{a}).Diags

			type mark struct {
				file string
				line int
			}
			wants := make(map[mark]string)
			for _, f := range pkg.Files {
				name := fset.Position(f.Pos()).Filename
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						if m := wantRe.FindStringSubmatch(c.Text); m != nil {
							wants[mark{name, fset.Position(c.Pos()).Line}] = m[1]
						}
					}
				}
			}
			if len(wants) == 0 {
				t.Fatalf("corpus for %s has no want markers", a.Name)
			}

			seen := make(map[mark]bool)
			for _, d := range diags {
				if filepath.Base(d.Pos.Filename) == "good.go" {
					t.Errorf("checker fired on the known-good file: %s", d)
					continue
				}
				k := mark{d.Pos.Filename, d.Pos.Line}
				sub, ok := wants[k]
				if !ok {
					t.Errorf("unexpected diagnostic: %s", d)
					continue
				}
				if !strings.Contains(d.Message, sub) {
					t.Errorf("%s:%d: diagnostic %q does not contain %q", k.file, k.line, d.Message, sub)
				}
				seen[k] = true
			}
			for k, sub := range wants {
				if !seen[k] {
					t.Errorf("%s:%d: expected a diagnostic containing %q, got none", k.file, k.line, sub)
				}
			}
		})
	}
}

// TestLockOrderChain pins the diagnostic contract for the seeded ABBA
// deadlock in the lockorder corpus: the single report must carry the
// full acquisition chain, i.e. the Lock() sites of *both* functions that
// traverse the cycle in opposite orders.
func TestLockOrderChain(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "lockorder", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("glob: %v %v", files, err)
	}
	fset := token.NewFileSet()
	imp := NewImporter(fset, corpusExports(t))
	pkg, err := CheckFiles(fset, imp, "veridp/lint/corpus/lockorder", files)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{LockOrder}).Diags
	// The ABBA report is anchored at bad.go:20 (the nested b acquisition).
	var msg string
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) == "bad.go" && d.Pos.Line == 20 {
			msg = d.Message
		}
	}
	if msg == "" {
		t.Fatalf("no ABBA diagnostic at bad.go:20 in %v", diags)
	}
	for _, site := range []string{
		"held since bad.go:18", "at bad.go:20", // abThenBa: a locked, then b
		"held since bad.go:25", "at bad.go:27", // baThenAb: b locked, then a
	} {
		if !strings.Contains(msg, site) {
			t.Errorf("ABBA diagnostic %q is missing lock site %q", msg, site)
		}
	}
}

// TestCheckerInteraction pins the composition contract: one function can
// be both an //lint:allocfree hot path and a snapfreeze publication site,
// and the two checkers report independently — each fires on its own
// violation at a distinct position, neither masking the other. (The
// interaction corpus is not in the TestCheckerCorpus loop because it
// belongs to no single analyzer.)
func TestCheckerInteraction(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "interaction", "*.go"))
	if err != nil || len(files) < 2 {
		t.Fatalf("interaction corpus: files=%v err=%v (want good.go and bad.go)", files, err)
	}
	fset := token.NewFileSet()
	imp := NewImporter(fset, corpusExports(t))
	pkg, err := CheckFiles(fset, imp, "veridp/lint/corpus/interaction", files)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{SnapFreeze, AllocFree}).Diags

	lines := make(map[string][]int) // checker -> bad.go lines it fired on
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) == "good.go" {
			t.Errorf("checker fired on the known-good file: %s", d)
			continue
		}
		lines[d.Checker] = append(lines[d.Checker], d.Pos.Line)
	}
	af, sf := lines["allocfree"], lines["snapfreeze"]
	if len(af) != 1 || len(sf) != 1 {
		t.Fatalf("want exactly one finding per checker, got allocfree=%v snapfreeze=%v (all: %v)", af, sf, diags)
	}
	if af[0] == sf[0] {
		t.Errorf("both checkers fired on line %d; the corpus seeds violations at distinct positions", af[0])
	}
	for _, d := range diags {
		switch d.Checker {
		case "allocfree":
			if !strings.Contains(d.Message, "address-taken composite literal") {
				t.Errorf("allocfree diagnostic %q is not about the inline allocation", d.Message)
			}
		case "snapfreeze":
			if !strings.Contains(d.Message, "frozen after publish") {
				t.Errorf("snapfreeze diagnostic %q is not about the post-publish write", d.Message)
			}
		}
	}
}

// TestCtxFlowInteraction pins the composition contract for the three
// lifetime checkers: one relay type seeds a lifecycle violation (spawned
// sleep-loop with no cancellation), a retrybound violation (unbounded
// redial), and a deadline violation (write on a never-armed conn), and
// each checker reports exactly its own finding at a distinct position.
func TestCtxFlowInteraction(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "ctxinteraction", "*.go"))
	if err != nil || len(files) < 2 {
		t.Fatalf("ctxinteraction corpus: files=%v err=%v (want good.go and bad.go)", files, err)
	}
	fset := token.NewFileSet()
	imp := NewImporter(fset, corpusExports(t))
	pkg, err := CheckFiles(fset, imp, "veridp/lint/corpus/ctxinteraction", files)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{Lifecycle, Deadline, RetryBound}).Diags

	lines := make(map[string][]int) // checker -> bad.go lines it fired on
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) == "good.go" {
			t.Errorf("checker fired on the known-good file: %s", d)
			continue
		}
		lines[d.Checker] = append(lines[d.Checker], d.Pos.Line)
	}
	lc, dl, rb := lines["lifecycle"], lines["deadline"], lines["retrybound"]
	if len(lc) != 1 || len(dl) != 1 || len(rb) != 1 {
		t.Fatalf("want exactly one finding per checker, got lifecycle=%v deadline=%v retrybound=%v (all: %v)",
			lc, dl, rb, diags)
	}
	if lc[0] == dl[0] || lc[0] == rb[0] || dl[0] == rb[0] {
		t.Errorf("findings share a line (lifecycle=%d deadline=%d retrybound=%d); the corpus seeds them at distinct positions",
			lc[0], dl[0], rb[0])
	}
	for _, d := range diags {
		switch d.Checker {
		case "lifecycle":
			if !strings.Contains(d.Message, "no exit and no cancellation signal") {
				t.Errorf("lifecycle diagnostic %q is not about the unstoppable loop", d.Message)
			}
		case "deadline":
			if !strings.Contains(d.Message, "has not armed") {
				t.Errorf("deadline diagnostic %q is not about the unarmed caller", d.Message)
			}
		case "retrybound":
			if !strings.Contains(d.Message, "without a bound") {
				t.Errorf("retrybound diagnostic %q is not about the unbounded retry", d.Message)
			}
		}
	}
}

// TestChanFlowInteraction pins the composition contract for the
// message-passing checkers: one launch method seeds a chanflow
// violation (undocumented buffer), a lifecycle violation (drain
// goroutine over a never-closed channel), and a wgsync violation
// (producer spawned after Add that never reaches Done), and each
// checker reports exactly its own finding at a distinct position.
func TestChanFlowInteraction(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "chaninteraction", "*.go"))
	if err != nil || len(files) < 2 {
		t.Fatalf("chaninteraction corpus: files=%v err=%v (want good.go and bad.go)", files, err)
	}
	fset := token.NewFileSet()
	imp := NewImporter(fset, corpusExports(t))
	pkg, err := CheckFiles(fset, imp, "veridp/lint/corpus/chaninteraction", files)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{ChanFlow, WgSync, Lifecycle}).Diags

	lines := make(map[string][]int) // checker -> bad.go lines it fired on
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) == "good.go" {
			t.Errorf("checker fired on the known-good file: %s", d)
			continue
		}
		lines[d.Checker] = append(lines[d.Checker], d.Pos.Line)
	}
	cf, wg, lc := lines["chanflow"], lines["wgsync"], lines["lifecycle"]
	if len(cf) != 1 || len(wg) != 1 || len(lc) != 1 {
		t.Fatalf("want exactly one finding per checker, got chanflow=%v wgsync=%v lifecycle=%v (all: %v)",
			cf, wg, lc, diags)
	}
	if cf[0] == wg[0] || cf[0] == lc[0] || wg[0] == lc[0] {
		t.Errorf("findings share a line (chanflow=%d wgsync=%d lifecycle=%d); the corpus seeds them at distinct positions",
			cf[0], wg[0], lc[0])
	}
	for _, d := range diags {
		switch d.Checker {
		case "chanflow":
			if !strings.Contains(d.Message, "without a justification") {
				t.Errorf("chanflow diagnostic %q is not about the undocumented buffer", d.Message)
			}
		case "wgsync":
			if !strings.Contains(d.Message, "never calls") {
				t.Errorf("wgsync diagnostic %q is not about the missing Done", d.Message)
			}
		case "lifecycle":
			if !strings.Contains(d.Message, "ranges over a channel") {
				t.Errorf("lifecycle diagnostic %q is not about the never-closed drain", d.Message)
			}
		}
	}
}

// TestLoadSelf exercises the production loader end-to-end on this very
// package: list, build export data, parse, type-check.
func TestLoadSelf(t *testing.T) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(strings.TrimSpace(string(out)))
	pkgs, err := Load(root, "./internal/lint")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Types.Name() != "lint" {
		t.Fatalf("Load returned %+v, want the lint package itself", pkgs)
	}
	if res := Run(pkgs, Analyzers); len(res.Diags) != 0 {
		t.Fatalf("the linter does not lint clean: %v", res.Diags)
	}
}

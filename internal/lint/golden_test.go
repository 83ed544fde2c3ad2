package lint

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/corpus.golden from the current analyzers")

// TestCorpusGolden runs every analyzer over every testdata corpus and
// compares the full diagnostic text — position with column, checker and
// message — against testdata/corpus.golden. TestCheckerCorpus checks
// each checker on its own corpus by substring; this pins the exact
// output, including what checkers report on each other's corpora.
// Regenerate with `go test ./internal/lint -run TestCorpusGolden -args -update`.
func TestCorpusGolden(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("testdata", "*"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			continue
		}
		name := filepath.Base(dir)
		fset := token.NewFileSet()
		pkg, err := CheckFiles(fset, NewImporter(fset, corpusExports(t)), "veridp/lint/corpus/"+name, files)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range Run([]*Package{pkg}, Analyzers).Diags {
			lines = append(lines, fmt.Sprintf("%s/%s:%d:%d: %s: %s",
				name, filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Checker, d.Message))
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "corpus.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -args -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	have := make(map[string]bool, len(lines))
	for _, l := range lines {
		have[l] = true
	}
	expected := make(map[string]bool, len(wantLines))
	for _, l := range wantLines {
		expected[l] = true
		if !have[l] {
			t.Errorf("missing: %s", l)
		}
	}
	for _, l := range lines {
		if !expected[l] {
			t.Errorf("unexpected: %s", l)
		}
	}
	if !t.Failed() {
		t.Errorf("same lines, different multiplicity: got %d, golden has %d", len(lines), len(wantLines))
	}
}

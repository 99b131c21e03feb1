package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/regalloc/workload"
)

func corpus(name string) string {
	return filepath.Join("..", "..", "internal", "ir", "testdata", name)
}

func TestRunStats(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-file", corpus("nested.ir"), "-cliques"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"function  nested", "vertices", "edges", "maxlive", "chordal   true", "pressure constraints:"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunDOT(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-file", corpus("diamond.ir"), "-dot"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.HasPrefix(text, "graph interference {") || !strings.Contains(text, "--") {
		t.Errorf("not a DOT graph:\n%s", text)
	}
}

// TestRunDeterminism: two runs over the same input must print identical
// bytes (the repo-wide determinism guarantee at the CLI surface).
func TestRunDeterminism(t *testing.T) {
	var a, b strings.Builder
	if err := run([]string{"-file", corpus("nested.ir"), "-cliques"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-file", corpus("nested.ir"), "-cliques"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("nondeterministic output across runs")
	}
}

func TestRunRejectsMissingFile(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-file", "nope.ir"}, &out); err == nil {
		t.Error("missing file accepted")
	}
}

// TestRunUnknownSuiteListsNames: a misspelt suite name is rejected with the
// valid names, taken from workload.AllSuites.
func TestRunUnknownSuiteListsNames(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-suite", "spec2000", "-prog", "gzip"}, &out)
	if err == nil {
		t.Fatal("unknown suite accepted")
	}
	for _, s := range workload.AllSuites {
		if !strings.Contains(err.Error(), s.Name) {
			t.Errorf("error %q does not list suite %q", err, s.Name)
		}
	}
}

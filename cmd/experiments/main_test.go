package main

import (
	"strings"
	"testing"
)

// TestRunFigure14 smoke-tests the experiment driver on the fastest figure:
// the JVM98 table must appear with the JIT allocator lineup as columns and
// the Optimal column pinned at 1.000 on every row.
func TestRunFigure14(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "14"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "Figure 14") {
		t.Fatalf("missing figure title:\n%s", text)
	}
	for _, col := range []string{"DLS", "BLS", "GC", "LH", "Optimal"} {
		if !strings.Contains(text, col) {
			t.Errorf("missing allocator column %s", col)
		}
	}
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 6 && fields[0] != "registers" {
			if fields[5] != "1.000" {
				t.Errorf("Optimal not normalized to 1.000 in row: %s", line)
			}
		}
	}
}

// TestRunFigure15 shares figure 14's dataset and exercises the
// per-benchmark aggregation path.
func TestRunFigure15(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "15"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 15") || !strings.Contains(out.String(), "benchmark") {
		t.Fatalf("figure 15 table malformed:\n%s", out.String())
	}
}

// TestRunBadFlag: a -fig that is not a number, or names a figure the
// paper does not have, is an error rather than a silent empty run.
func TestRunBadFlag(t *testing.T) {
	for _, fig := range []string{"notanumber", "3", "7", "16", "99", "-1"} {
		var out strings.Builder
		if err := run([]string{"-fig", fig}, &out); err == nil {
			t.Errorf("-fig %s accepted", fig)
		}
		if out.Len() != 0 {
			t.Errorf("-fig %s printed %q", fig, out.String())
		}
	}
}

// TestRunAgainstMissingFile: the committed report is loaded before the
// expensive generation, so a bad -against path must fail immediately.
func TestRunAgainstMissingFile(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-against", "/nonexistent/QUALITY.json"}, &out); err == nil {
		t.Error("missing -against file accepted")
	}
}

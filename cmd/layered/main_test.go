package main

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/regalloc"
	"repro/regalloc/workload"
)

func corpus(name string) string {
	return filepath.Join("..", "..", "internal", "ir", "testdata", name)
}

func TestRunSSAFile(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-file", corpus("loop.ir"), "-r", "2", "-print"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"function   loop", "allocator  ", "registers  2", "maxlive", "spilled"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// -print on an SSA input must show the rewritten function.
	if !strings.Contains(text, "func loop ssa {") {
		t.Errorf("-print did not emit the rewritten function:\n%s", text)
	}
}

func TestRunNonSSAAllocator(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-file", corpus("redef.ir"), "-r", "2", "-alloc", "LH"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "allocator  LH") {
		t.Errorf("LH not reported:\n%s", out.String())
	}
}

func TestRunSuiteProgram(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-suite", "eembc", "-prog", "aifir", "-r", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "function   aifir") {
		t.Errorf("suite program not loaded:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-file", "does-not-exist.ir"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"-file", corpus("loop.ir"), "-alloc", "bogus"}, &out); err == nil {
		t.Error("unknown allocator accepted")
	}
	if err := run([]string{"-file", corpus("loop.ir"), "-arch", "bogus"}, &out); err == nil {
		t.Error("unknown arch accepted")
	}
	if err := run([]string{"-file", corpus("loop.ir"), "-r", "1099511627776"}, &out); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("-r 1099511627776: err = %v, want ErrInvalidConfig", err)
	}
	// A misspelt suite is rejected with the valid names.
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

// TestAllocHelp: `-alloc help` lists the registered allocator names,
// sorted, one per line — the registry-backed discovery satellite.
func TestAllocHelp(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-alloc", "help"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, want := range []string{"BFPL", "LH", "Optimal"} {
		found := false
		for _, l := range lines {
			if l == want {
				found = true
			}
		}
		if !found {
			t.Errorf("-alloc help missing %s:\n%s", want, out.String())
		}
	}
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Fatalf("-alloc help not sorted: %v", lines)
		}
	}
}

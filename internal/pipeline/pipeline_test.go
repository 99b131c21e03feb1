package pipeline

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/raerr"
	"repro/internal/spillcost"
)

// TestRunModuleDeterminism is the batch layer's core guarantee: over a
// ≥500-function generated module, the full detailed report (spill sets,
// assignments, rewritten bodies) is byte-identical at 1, 4 and 16 workers.
// CI runs this under -race, so it is also the pipeline's data-race probe.
func TestRunModuleDeterminism(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 60
	}
	m := irgen.GenerateModule(20260728, n)
	if len(m.Funcs) != n {
		t.Fatalf("generated %d functions, want %d", len(m.Funcs), n)
	}
	var want string
	for _, jobs := range []int{1, 4, 16} {
		results, err := RunModule(context.Background(), m, Config{Registers: 4, Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if err := FirstErr(results); err != nil {
			t.Fatalf("jobs=%d: function failed: %v", jobs, err)
		}
		got := FormatResults(results, true)
		if jobs == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("jobs=%d output differs from jobs=1 (len %d vs %d)", jobs, len(got), len(want))
		}
	}
}

// TestRunModuleScratchReuseEquivalent: the per-worker Runner is a pure
// memory optimization — a fresh core.Run per function must not change a
// byte of output.
func TestRunModuleScratchReuseEquivalent(t *testing.T) {
	m := irgen.GenerateModule(7, 80)
	with, err := RunModule(context.Background(), m, Config{Registers: 3, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	without := make([]FuncResult, len(m.Funcs))
	for i, f := range m.Funcs {
		out, err := core.Run(f, core.Config{Registers: 3})
		without[i] = FuncResult{Index: i, Name: f.Name, Outcome: out, Err: err}
	}
	if FormatResults(with, true) != FormatResults(without, true) {
		t.Fatal("scratch reuse changed results")
	}
}

// TestRunModuleMatchesCoreRun: batch results agree with one-at-a-time
// core.Run through the same report format.
func TestRunModuleMatchesCoreRun(t *testing.T) {
	m := irgen.GenerateModule(99, 40)
	results, err := RunModule(context.Background(), m, Config{Registers: 8, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	sequential := make([]FuncResult, 0, len(m.Funcs))
	for i, f := range m.Funcs {
		out, err := RunFunc(nil, f, core.Config{Registers: 8})
		sequential = append(sequential, FuncResult{Index: i, Name: f.Name, Outcome: out, Err: err})
	}
	if FormatResults(results, true) != FormatResults(sequential, true) {
		t.Fatal("batch and sequential results differ")
	}
}

// TestRunModuleNamedAllocators runs every registered allocator name through
// the batch layer; chordal-only allocators panic on general graphs, and the
// pipeline must convert that into a per-function error, not a crash.
func TestRunModuleNamedAllocators(t *testing.T) {
	m := irgen.GenerateModule(3, 30)
	for _, name := range []string{"NL", "BFPL", "GC", "DLS", "BLS", "LH", "Optimal"} {
		results, err := RunModule(context.Background(), m, Config{Registers: 4, Allocator: name, Jobs: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range results {
			if results[i].Err == nil && results[i].Outcome == nil {
				t.Fatalf("%s: function %s has neither outcome nor error", name, results[i].Name)
			}
		}
	}
}

// TestRunModuleErrorIsolation: a function that fails (non-chordal input to
// a chordal-only allocator) must not poison its neighbours.
func TestRunModuleErrorIsolation(t *testing.T) {
	m := ir.MustParseModule(`
func ok ssa {
b0:
  a = param 0
  b = arith a, a
  ret b
}

func multidef {
b0:
  x = param 0
  x = arith x, x
  c = unary x
  condbr c, b1, b2
b1:
  x = unary x
  br b2
b2:
  ret x
}
`)
	// NL is chordal-only: the non-SSA function must fail, the SSA one pass.
	results, err := RunModule(context.Background(), m, Config{Registers: 4, Allocator: "NL", Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("ok function failed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Fatal("chordal-only allocator accepted a general graph")
	}
	if !strings.Contains(FormatResults(results, false), "ERROR") {
		t.Fatal("report does not surface the per-function error")
	}
}

// TestRunModuleConfigErrors pins the fail-fast paths.
func TestRunModuleConfigErrors(t *testing.T) {
	m := irgen.GenerateModule(1, 2)
	if _, err := RunModule(context.Background(), m, Config{Registers: 0}); err == nil {
		t.Error("accepted Registers=0")
	}
	if _, err := RunModule(context.Background(), m, Config{Registers: 4, Allocator: "nope"}); err == nil {
		t.Error("accepted unknown allocator")
	}
	if _, err := RunModule(context.Background(), &ir.Module{}, Config{Registers: 4}); err == nil {
		t.Error("accepted empty module")
	}
	if _, err := RunModule(context.Background(), m, Config{Registers: 4, CostModel: spillcost.Model{LoopBase: -1, StoreFactor: 1}}); err == nil {
		t.Error("accepted invalid cost model")
	}
}

// TestSummarize checks the batch totals against a hand-rolled count.
func TestSummarize(t *testing.T) {
	m := irgen.GenerateModule(42, 25)
	results, err := RunModule(context.Background(), m, Config{Registers: 2, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	tot := Summarize(results)
	if tot.Funcs != 25 {
		t.Fatalf("Funcs = %d, want 25", tot.Funcs)
	}
	spilled, cost := 0, 0.0
	for i := range results {
		if results[i].Err != nil {
			continue
		}
		spilled += len(results[i].Outcome.SpilledValues)
		cost += results[i].Outcome.SpillCost
	}
	if tot.Spilled != spilled || tot.SpillCost != cost {
		t.Fatalf("totals %+v disagree with recount (%d, %g)", tot, spilled, cost)
	}
}

// TestRunModuleCancellation is the satellite bugproofing test: cancel a
// batch mid-module and require (a) an error wrapping both the typed
// raerr.ErrCanceled and context.Canceled, (b) full-length partial results
// where everything processed before the cut has a real outcome and
// everything after it is marked canceled.
func TestRunModuleCancellation(t *testing.T) {
	n := 300
	m := irgen.GenerateModule(5150, n)
	ctx, cancel := context.WithCancel(context.Background())
	seen := make(chan struct{}, n)
	// Cancel after the first few functions complete: a worker-side hook is
	// not available, so run the module through the stream form first to
	// find a stable cut, then cancel the batch from a racing goroutine
	// keyed on one completed result.
	go func() {
		<-seen
		cancel()
	}()
	// The hook parks every worker that completes a function until the
	// cancel lands, so at most Jobs functions complete before the cut —
	// the test is deterministic instead of racing the batch to the finish.
	results, err := RunModule(ctx, m, Config{Registers: 4, Jobs: 2, onFuncDone: func() {
		select {
		case seen <- struct{}{}:
		default:
		}
		<-ctx.Done()
	}})
	if err == nil {
		t.Skip("batch completed before cancellation (machine too fast for the race)")
	}
	if !errors.Is(err, raerr.ErrCanceled) {
		t.Fatalf("module error %v does not wrap raerr.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("module error %v does not wrap context.Canceled", err)
	}
	if len(results) != n {
		t.Fatalf("partial results have length %d, want %d", len(results), n)
	}
	completed, canceled := 0, 0
	for i := range results {
		switch {
		case results[i].Outcome != nil:
			completed++
		case errors.Is(results[i].Err, raerr.ErrCanceled):
			canceled++
			if results[i].Name == "" {
				t.Fatalf("canceled result %d lost its function name", i)
			}
		case results[i].Err != nil:
			t.Fatalf("function %s failed with a non-cancellation error: %v", results[i].Name, results[i].Err)
		default:
			t.Fatalf("result %d has neither outcome nor error", i)
		}
	}
	if completed == 0 {
		t.Error("cancellation produced no completed functions (expected partial results)")
	}
	if canceled == 0 {
		t.Error("cancellation left no canceled functions (cancel came too late to test anything)")
	}
}

// TestRunModuleStreamOrdered: the streaming form yields every result
// exactly once, in module order, with the same bytes as the batch form.
func TestRunModuleStreamOrdered(t *testing.T) {
	m := irgen.GenerateModule(808, 60)
	batch, err := RunModule(context.Background(), m, Config{Registers: 3, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []FuncResult
	err = RunModuleStream(context.Background(), m, Config{Registers: 3, Jobs: 4}, func(r FuncResult) error {
		streamed = append(streamed, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(batch) {
		t.Fatalf("streamed %d results, want %d", len(streamed), len(batch))
	}
	for i := range streamed {
		if streamed[i].Index != i {
			t.Fatalf("stream out of order: position %d carries index %d", i, streamed[i].Index)
		}
	}
	if FormatResults(streamed, true) != FormatResults(batch, true) {
		t.Fatal("streamed results differ from batch results")
	}
}

// TestRunModuleStreamYieldError: a failing yield stops the workers and
// surfaces the yield error verbatim.
func TestRunModuleStreamYieldError(t *testing.T) {
	m := irgen.GenerateModule(33, 40)
	boom := errors.New("consumer full")
	n := 0
	err := RunModuleStream(context.Background(), m, Config{Registers: 3, Jobs: 2}, func(r FuncResult) error {
		n++
		if n == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("stream error = %v, want the yield error", err)
	}
	if n != 5 {
		t.Fatalf("yield called %d times after erroring at 5", n)
	}
}

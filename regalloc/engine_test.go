package regalloc_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/irgen"
	"repro/internal/pipeline"
	"repro/regalloc"
	"repro/regalloc/irx"
)

const ssaSrc = `
func f ssa {
b0:
  a = param 0
  b = param 1
  c = arith a, b
  d = arith c, a
  ret d
}`

const nonSSASrc = `
func g {
b0:
  x = param 0
  x = arith x, x
  ret x
}`

func TestNewValidatesOptions(t *testing.T) {
	if _, err := regalloc.New(); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("New() without WithRegisters: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := regalloc.New(regalloc.WithRegisters(0)); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("WithRegisters(0): err = %v, want ErrInvalidConfig", err)
	}
	if _, err := regalloc.New(regalloc.WithRegisters(4), regalloc.WithJobs(-1)); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("WithJobs(-1): err = %v, want ErrInvalidConfig", err)
	}
	if _, err := regalloc.New(regalloc.WithRegisters(4), regalloc.WithAllocator("nope")); !errors.Is(err, regalloc.ErrUnknownAllocator) {
		t.Errorf("WithAllocator(nope): err = %v, want ErrUnknownAllocator", err)
	}
	bad := regalloc.NewCostModel(-1, 1)
	if _, err := regalloc.New(regalloc.WithRegisters(4), regalloc.WithCostModel(bad)); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("invalid cost model: err = %v, want ErrInvalidConfig", err)
	}
	// WithTrustedCostModel defers the malformed model to run time; New
	// must accept it.
	if _, err := regalloc.New(regalloc.WithRegisters(4), regalloc.WithCostModel(bad),
		regalloc.WithTrustedCostModel()); err != nil {
		t.Errorf("WithTrustedCostModel: New rejected the deferred model: %v", err)
	}
}

func TestAllocatorNameCaseInsensitive(t *testing.T) {
	eng, err := regalloc.New(regalloc.WithRegisters(4), regalloc.WithAllocator("bfpl"))
	if err != nil {
		t.Fatalf("lower-case allocator name rejected: %v", err)
	}
	out, err := eng.AllocateFunc(context.Background(), irx.MustParse(ssaSrc))
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Allocator != "BFPL" {
		t.Errorf("allocator = %s, want BFPL", out.Result.Allocator)
	}
}

func TestAllocateFuncTypedErrors(t *testing.T) {
	eng, err := regalloc.New(regalloc.WithRegisters(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// A function declared ssa that violates single definition: ErrNotSSA
	// through a *FuncError naming the validate stage.
	broken := irx.MustParse(nonSSASrc)
	broken.SSA = true
	_, err = eng.AllocateFunc(ctx, broken)
	if !errors.Is(err, regalloc.ErrNotSSA) {
		t.Errorf("multi-def ssa function: err = %v, want ErrNotSSA", err)
	}
	var fe *regalloc.FuncError
	if !errors.As(err, &fe) {
		t.Fatalf("err %v is not a *FuncError", err)
	}
	if fe.Func != "g" || fe.Stage != "validate" {
		t.Errorf("FuncError = {Func: %q, Stage: %q}, want {g, validate}", fe.Func, fe.Stage)
	}

	// A chordal-only allocator on a non-SSA function: ErrNotSSA at the
	// allocate stage.
	chordalEng, err := regalloc.New(regalloc.WithRegisters(2), regalloc.WithAllocator("NL"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = chordalEng.AllocateFunc(ctx, irx.MustParse(nonSSASrc))
	if !errors.Is(err, regalloc.ErrNotSSA) {
		t.Errorf("NL on non-SSA: err = %v, want ErrNotSSA", err)
	}
	if !errors.As(err, &fe) || fe.Stage != "allocate" {
		t.Errorf("NL on non-SSA: err %v should be a *FuncError at the allocate stage", err)
	}

	// Canceled context before the call.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	_, err = eng.AllocateFunc(canceled, irx.MustParse(ssaSrc))
	if !errors.Is(err, regalloc.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled ctx: err = %v, want ErrCanceled wrapping context.Canceled", err)
	}

	if _, err := eng.AllocateFunc(ctx, nil); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("nil function: err = %v, want ErrInvalidConfig", err)
	}
}

// overAllocator keeps everything in registers regardless of pressure — an
// intentionally broken custom allocator to pin the engine-side result
// verification and its typed error.
type overAllocator struct{}

func (overAllocator) Name() string { return "test-overalloc" }
func (overAllocator) Allocate(p *regalloc.Problem) *regalloc.Result {
	res := &regalloc.Result{Allocated: make([]bool, p.N()), Allocator: "test-overalloc"}
	for i := range res.Allocated {
		res.Allocated[i] = true
	}
	return res
}

func TestCustomAllocatorPressureUnsatisfiable(t *testing.T) {
	if err := regalloc.Register("test-overalloc", func() regalloc.Allocator { return overAllocator{} }); err != nil {
		t.Fatal(err)
	}
	eng, err := regalloc.New(regalloc.WithRegisters(2), regalloc.WithAllocator("test-overalloc"))
	if err != nil {
		t.Fatal(err)
	}
	// MaxLive 3 > R=2, so keeping everything violates pressure.
	f := irx.MustParse(`
func hot ssa {
b0:
  a = param 0
  b = param 1
  c = param 2
  d = arith a, b
  e = arith d, c
  g = arith e, a
  ret g
}`)
	_, err = eng.AllocateFunc(context.Background(), f)
	if !errors.Is(err, regalloc.ErrPressureUnsatisfiable) {
		t.Errorf("over-allocating custom allocator: err = %v, want ErrPressureUnsatisfiable", err)
	}
	var fe *regalloc.FuncError
	if !errors.As(err, &fe) || fe.Stage != "allocate" {
		t.Errorf("err %v should be a *FuncError at the allocate stage", err)
	}
}

// truncAllocator returns a wrong-length result — a contract violation that
// must NOT be tagged ErrPressureUnsatisfiable (that sentinel means "kept
// more than R live values", which a retry with more registers could fix;
// this can't be).
type truncAllocator struct{}

func (truncAllocator) Name() string { return "test-trunc" }
func (truncAllocator) Allocate(p *regalloc.Problem) *regalloc.Result {
	return &regalloc.Result{Allocated: make([]bool, 1), Allocator: "test-trunc"}
}

func TestCustomAllocatorMalformedResult(t *testing.T) {
	if err := regalloc.Register("test-trunc", func() regalloc.Allocator { return truncAllocator{} }); err != nil {
		t.Fatal(err)
	}
	eng, err := regalloc.New(regalloc.WithRegisters(2), regalloc.WithAllocator("test-trunc"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.AllocateFunc(context.Background(), irx.MustParse(ssaSrc))
	if err == nil {
		t.Fatal("malformed result accepted")
	}
	if errors.Is(err, regalloc.ErrPressureUnsatisfiable) {
		t.Errorf("malformed result mis-tagged as pressure failure: %v", err)
	}
	var fe *regalloc.FuncError
	if !errors.As(err, &fe) || fe.Stage != "allocate" {
		t.Errorf("err %v should be a *FuncError at the allocate stage", err)
	}
}

// panicAllocator blows up on every input: even then, clients must get the
// documented *FuncError, never a crashed batch or an untyped error.
type panicAllocator struct{}

func (panicAllocator) Name() string { return "test-panic" }
func (panicAllocator) Allocate(p *regalloc.Problem) *regalloc.Result {
	panic("intentional test panic")
}

func TestCustomAllocatorPanicIsFuncError(t *testing.T) {
	if err := regalloc.Register("test-panic", func() regalloc.Allocator { return panicAllocator{} }); err != nil {
		t.Fatal(err)
	}
	eng, err := regalloc.New(regalloc.WithRegisters(2), regalloc.WithAllocator("test-panic"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.AllocateFunc(context.Background(), irx.MustParse(ssaSrc))
	var fe *regalloc.FuncError
	if !errors.As(err, &fe) || fe.Func != "f" || fe.Stage != "allocate" {
		t.Errorf("panicking allocator: err = %v, want *FuncError{f, allocate}", err)
	}
}

// TestTrustedCostModelModuleRuns: an engine built with WithTrustedCostModel
// behaves identically on the single-function and module entry points — the
// deferred (unvalidated) model is the caller's responsibility on both.
func TestTrustedCostModelModuleRuns(t *testing.T) {
	m := irgen.GenerateModule(4, 4)
	eng, err := regalloc.New(regalloc.WithRegisters(4),
		regalloc.WithCostModel(regalloc.NewCostModel(2, 1)),
		regalloc.WithTrustedCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AllocateModule(context.Background(), m); err != nil {
		t.Errorf("trusted cost model rejected by the module path: %v", err)
	}
}

func TestRegistry(t *testing.T) {
	if err := regalloc.Register("test-reg-a", func() regalloc.Allocator { return overAllocator{} }); err != nil {
		t.Fatal(err)
	}
	// Double registration, exact and case-folded.
	if err := regalloc.Register("test-reg-a", func() regalloc.Allocator { return overAllocator{} }); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("double registration: err = %v, want ErrInvalidConfig", err)
	}
	if err := regalloc.Register("TEST-REG-A", func() regalloc.Allocator { return overAllocator{} }); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("case-folded double registration: err = %v, want ErrInvalidConfig", err)
	}
	if err := regalloc.Register("", func() regalloc.Allocator { return overAllocator{} }); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("empty name: err = %v, want ErrInvalidConfig", err)
	}
	if err := regalloc.Register("test-reg-nilf", nil); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("nil factory: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := regalloc.NewAllocator("definitely-not-registered"); !errors.Is(err, regalloc.ErrUnknownAllocator) {
		t.Errorf("unknown name: err = %v, want ErrUnknownAllocator", err)
	}

	names := regalloc.Allocators()
	for _, builtin := range []string{"NL", "BL", "FPL", "BFPL", "LH", "GC", "DLS", "BLS", "Optimal"} {
		found := false
		for _, n := range names {
			if n == builtin {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in %s missing from Allocators() = %v", builtin, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Allocators() not sorted/deduplicated: %v", names)
		}
	}
}

// TestEngineConcurrentUse: one engine, many goroutines — the scratch pool
// must keep results correct and race-free (run under -race in CI).
func TestEngineConcurrentUse(t *testing.T) {
	eng, err := regalloc.New(regalloc.WithRegisters(4))
	if err != nil {
		t.Fatal(err)
	}
	m := irgen.GenerateModule(11, 40)
	want := make([]string, len(m.Funcs))
	for i, f := range m.Funcs {
		out, err := eng.AllocateFunc(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprintf("%v/%.1f", out.SpilledValues, out.SpillCost)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(m.Funcs))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine regenerates its own module (sharing one *Func
			// across goroutines is TestAllocateFuncSharedInput's case).
			own := irgen.GenerateModule(11, 40)
			for i, f := range own.Funcs {
				out, err := eng.AllocateFunc(context.Background(), f)
				if err != nil {
					errs <- err
					return
				}
				if got := fmt.Sprintf("%v/%.1f", out.SpilledValues, out.SpillCost); got != want[i] {
					errs <- fmt.Errorf("func %s: concurrent result %s differs from sequential %s", f.Name, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAllocateFuncSharedInput allocates one *Func from 4 goroutines, 20
// AllocateFunc calls each, through one Engine. A run must only read its
// input — the loop analysis stays with the run, and the rewritten function
// carries the depths — so every detailed report (assignment and rewritten
// body, loop depths included) equals the sequential one, the input keeps
// its own (here zeroed) loop depths, and the race detector stays quiet.
func TestAllocateFuncSharedInput(t *testing.T) {
	eng, err := regalloc.New(regalloc.WithRegisters(3))
	if err != nil {
		t.Fatal(err)
	}
	f := nestedLoopFunc(t)
	for _, b := range f.Blocks {
		b.LoopDepth = 0
	}
	before := f.String()
	report := func() (string, error) {
		out, err := eng.AllocateFunc(context.Background(), f)
		if err != nil {
			return "", err
		}
		return regalloc.FormatResults([]regalloc.FuncResult{{Name: f.Name, Outcome: out}}, true), nil
	}
	want, err := report()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want, "loop=2") || !strings.Contains(want, "reload") {
		t.Fatalf("want a rewrite with spills and nested loop depths, got:\n%s", want)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*20)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := report()
				if err == nil && got != want {
					err = fmt.Errorf("concurrent report differs from the sequential one:\n%s\nwant:\n%s", got, want)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if f.String() != before {
		t.Errorf("allocation wrote into its input:\n%s\nwant:\n%s", f, before)
	}
}

// nestedLoopFunc parses a strict-SSA function with a two-deep loop nest and
// enough pressure to spill at R=3.
func nestedLoopFunc(t *testing.T) *irx.Func {
	t.Helper()
	f, err := irx.Parse(`
func nest ssa {
b0:
  n = param 0
  a = param 1
  b = param 2
  zero = const 0
  one = const 1
  br b1
b1:
  i = phi [b0: zero], [b4: i2]
  s = phi [b0: zero], [b4: s3]
  c = arith i, n
  condbr c, b2, b5
b2:
  j = phi [b1: zero], [b3: j2]
  t = phi [b1: s], [b3: t2]
  d = arith j, n
  condbr d, b3, b4
b3:
  x = arith a, b
  y = arith x, t
  t2 = arith y, j
  j2 = arith j, one
  br b2
b4:
  s3 = arith t, a
  i2 = arith i, one
  br b1
b5:
  r = arith s, b
  ret r
}`)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestAllocateModuleMatchesPipeline pins the façade to the internal batch
// pipeline byte for byte: the corpus modules plus 100 generated seeds must
// produce identical detailed reports through regalloc.AllocateModule and
// pipeline.RunModule.
func TestAllocateModuleMatchesPipeline(t *testing.T) {
	eng, err := regalloc.New(regalloc.WithRegisters(4), regalloc.WithJobs(4))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, m *irx.Module) {
		t.Helper()
		got, err := eng.AllocateModule(context.Background(), m)
		if err != nil {
			t.Fatalf("%s: façade: %v", name, err)
		}
		want, err := pipeline.RunModule(context.Background(), m, pipeline.Config{Registers: 4, Jobs: 4})
		if err != nil {
			t.Fatalf("%s: pipeline: %v", name, err)
		}
		if g, w := regalloc.FormatResults(got, true), pipeline.FormatResults(want, true); g != w {
			t.Errorf("%s: façade output differs from pipeline.RunModule:\n--- façade\n%s\n--- pipeline\n%s", name, g, w)
		}
	}

	dir := filepath.Join("..", "internal", "ir", "testdata", "modules")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corpus := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ir") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		m, err := irx.ParseModule(string(src))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		check(e.Name(), m)
		corpus++
	}
	if corpus == 0 {
		t.Fatal("no corpus modules found")
	}
	for seed := int64(1); seed <= 100; seed++ {
		check(fmt.Sprintf("seed-%d", seed), irgen.GenerateModule(seed, 5))
	}
}

// TestAllocateStream: the streaming form yields the same results in module
// order and honours mid-stream cancellation with the typed error.
func TestAllocateStream(t *testing.T) {
	eng, err := regalloc.New(regalloc.WithRegisters(4), regalloc.WithJobs(4))
	if err != nil {
		t.Fatal(err)
	}
	m := irgen.GenerateModule(77, 30)
	batch, err := eng.AllocateModule(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	var got []regalloc.FuncResult
	err = eng.AllocateStream(context.Background(), m, func(r regalloc.FuncResult) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if regalloc.FormatResults(got, true) != regalloc.FormatResults(batch, true) {
		t.Error("stream results differ from batch results")
	}

	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	err = eng.AllocateStream(ctx, m, func(r regalloc.FuncResult) error {
		if n++; n == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, regalloc.ErrCanceled) {
		t.Errorf("canceled stream: err = %v, want ErrCanceled", err)
	}
}

// TestAllocateModuleCancellation: the typed partial-result contract at the
// façade level.
func TestAllocateModuleCancellation(t *testing.T) {
	eng, err := regalloc.New(regalloc.WithRegisters(4), regalloc.WithJobs(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := irgen.GenerateModule(9, 10)
	results, err := eng.AllocateModule(ctx, m)
	if !errors.Is(err, regalloc.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if len(results) != len(m.Funcs) {
		t.Fatalf("partial results length %d, want %d", len(results), len(m.Funcs))
	}
	for i := range results {
		if results[i].Err == nil && results[i].Outcome == nil {
			t.Fatalf("result %d has neither outcome nor error", i)
		}
	}
}

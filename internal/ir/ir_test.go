package ir

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/raerr"
)

// diamond builds the CFG
//
//	b0 → b1, b2 → b3
func diamond(t *testing.T) *Func {
	t.Helper()
	return MustParse(`
func diamond ssa {
b0:
  x = param 0
  c = unary x
  condbr c, b1, b2
b1:
  y = arith x, x
  br b3
b2:
  z = arith x, x
  br b3
b3:
  m = phi [b1: y], [b2: z]
  ret m
}`)
}

func TestParseDiamond(t *testing.T) {
	f := diamond(t)
	if len(f.Blocks) != 4 {
		t.Fatalf("blocks = %d", len(f.Blocks))
	}
	if !f.SSA {
		t.Fatal("ssa attribute lost")
	}
	if got := f.Blocks[0].Succs; len(got) != 2 {
		t.Fatalf("entry succs = %v", got)
	}
	if got := f.Blocks[3].Preds; len(got) != 2 {
		t.Fatalf("join preds = %v", got)
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	f := diamond(t)
	text := f.String()
	g, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	if g.String() != text {
		t.Fatalf("round trip not stable:\n%s\nvs\n%s", text, g.String())
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"missing brace":      "func f ssa {\nb0:\n  ret",
		"unknown op":         "func f {\nb0:\n  x = frobnicate y\n  ret\n}",
		"bad label":          "func f {\n0b:\n  ret\n}",
		"dup block":          "func f {\nb0:\n  br b0\nb0:\n  ret\n}",
		"undefined target":   "func f {\nb0:\n  br b9\n}",
		"instr before block": "func f {\n  ret\n}",
		"no result":          "func f {\nb0:\n  arith a, b\n  ret\n}",
		"result on ret":      "func f {\nb0:\n  x = ret\n}",
		"phi non-pred":       "func f ssa {\nb0:\n  x = param 0\n  br b1\nb1:\n  p = phi [b1: x]\n  ret\n}",
		"bad attribute":      "func f fast {\nb0:\n  ret\n}",
		"condbr arity":       "func f {\nb0:\n  x = param 0\n  condbr x, b0\n}",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestValidateCatchesDoubleDef(t *testing.T) {
	src := `
func f ssa {
b0:
  x = param 0
  x = arith x, x
  ret x
}`
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "defined 2 times") {
		t.Fatalf("double def not caught: %v", err)
	}
}

func TestValidateCatchesUseBeforeDef(t *testing.T) {
	src := `
func f ssa {
b0:
  c = param 0
  condbr c, b1, b2
b1:
  y = arith c, c
  br b3
b2:
  br b3
b3:
  z = arith y, y
  ret z
}`
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "not dominated") {
		t.Fatalf("dominance violation not caught: %v", err)
	}
}

func TestNonSSAAllowsRedefinition(t *testing.T) {
	src := `
func f {
b0:
  x = param 0
  x = arith x, x
  ret x
}`
	if _, err := Parse(src); err != nil {
		t.Fatalf("non-SSA redefinition rejected: %v", err)
	}
}

func TestNonSSAForbidsPhi(t *testing.T) {
	src := `
func f {
b0:
  x = param 0
  br b1
b1:
  p = phi [b0: x]
  ret p
}`
	if _, err := Parse(src); err == nil {
		t.Fatal("phi in non-SSA function accepted")
	}
}

func TestDominanceDiamond(t *testing.T) {
	f := diamond(t)
	d := f.ComputeDominance()
	if d.Idom[1] != 0 || d.Idom[2] != 0 || d.Idom[3] != 0 {
		t.Fatalf("idoms = %v", d.Idom)
	}
	if !d.Dominates(0, 3) || d.Dominates(1, 3) || d.Dominates(3, 1) {
		t.Fatal("Dominates answers wrong")
	}
	if !d.Dominates(2, 2) {
		t.Fatal("dominance must be reflexive")
	}
}

func TestDominanceLoop(t *testing.T) {
	f := MustParse(`
func loop ssa {
b0:
  n = param 0
  br b1
b1:
  i = phi [b0: n], [b2: j]
  c = unary i
  condbr c, b2, b3
b2:
  j = arith i, i
  br b1
b3:
  ret i
}`)
	d := f.ComputeDominance()
	if d.Idom[1] != 0 || d.Idom[2] != 1 || d.Idom[3] != 1 {
		t.Fatalf("idoms = %v", d.Idom)
	}
	headers := f.ComputeLoops(d)
	if len(headers) != 1 || headers[0] != 1 {
		t.Fatalf("headers = %v", headers)
	}
	if f.Blocks[1].LoopDepth != 1 || f.Blocks[2].LoopDepth != 1 {
		t.Fatalf("loop depths: b1=%d b2=%d", f.Blocks[1].LoopDepth, f.Blocks[2].LoopDepth)
	}
	if f.Blocks[0].LoopDepth != 0 || f.Blocks[3].LoopDepth != 0 {
		t.Fatal("blocks outside the loop have nonzero depth")
	}
}

func TestNestedLoopDepth(t *testing.T) {
	f := MustParse(`
func nest ssa {
b0:
  n = param 0
  br b1
b1:
  i = phi [b0: n], [b4: i2]
  ci = unary i
  condbr ci, b2, b5
b2:
  j = phi [b1: i], [b3: j2]
  cj = unary j
  condbr cj, b3, b4
b3:
  j2 = arith j, i
  br b2
b4:
  i2 = arith i, i
  br b1
b5:
  ret i
}`)
	d := f.ComputeDominance()
	f.ComputeLoops(d)
	depths := []int{0, 1, 2, 2, 1, 0}
	for b, want := range depths {
		if got := f.Blocks[b].LoopDepth; got != want {
			t.Errorf("b%d depth = %d, want %d", b, got, want)
		}
	}
}

func TestUnreachableBlockTolerated(t *testing.T) {
	f := &Func{Name: "u", SSA: true, ValueName: map[int]string{}}
	b0 := f.AddBlock("b0")
	v := f.NewValue()
	b0.Instrs = []Instr{
		{Op: OpConst, Def: v, Imm: 1},
		{Op: OpReturn, Def: NoValue, Uses: []int{v}},
	}
	dead := f.AddBlock("dead")
	w := f.NewValue()
	dead.Instrs = []Instr{
		{Op: OpConst, Def: w, Imm: 2},
		{Op: OpReturn, Def: NoValue, Uses: []int{w}},
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("unreachable block rejected: %v", err)
	}
	d := f.ComputeDominance()
	if d.Order[dead.ID] != -1 {
		t.Fatal("unreachable block has an RPO number")
	}
}

func TestDefsAndUseCounts(t *testing.T) {
	f := diamond(t)
	defs := f.Defs()
	uses := f.UseCounts()
	named := map[string]int{}
	for id, name := range f.ValueName {
		named[name] = id
	}
	if len(defs[named["x"]]) != 1 {
		t.Fatalf("x defined %d times", len(defs[named["x"]]))
	}
	// x is used by: unary, two ariths (2 uses each).
	if uses[named["x"]] != 5 {
		t.Fatalf("x used %d times, want 5", uses[named["x"]])
	}
	if uses[named["m"]] != 1 {
		t.Fatalf("m used %d times, want 1", uses[named["m"]])
	}
}

func TestTerminatorAccess(t *testing.T) {
	f := diamond(t)
	term := f.Blocks[0].Terminator()
	if term == nil || term.Op != OpCondBr {
		t.Fatalf("entry terminator = %v", term)
	}
	empty := &Block{}
	if empty.Terminator() != nil {
		t.Fatal("empty block has terminator")
	}
}

func TestOpStringAndHasDef(t *testing.T) {
	if OpPhi.String() != "phi" || OpCondBr.String() != "condbr" {
		t.Fatal("op names wrong")
	}
	if Op(99).String() == "" {
		t.Fatal("unknown op prints empty")
	}
	if OpStore.HasDef() || OpReturn.HasDef() || OpSpill.HasDef() {
		t.Fatal("no-def op claims a def")
	}
	if !OpReload.HasDef() || !OpCall.HasDef() {
		t.Fatal("def op claims no def")
	}
	if !OpBranch.IsTerminator() || OpArith.IsTerminator() {
		t.Fatal("terminator classification wrong")
	}
}

func TestParseCommentsAndWhitespace(t *testing.T) {
	f := MustParse(`
; leading comment
func c ssa {   ; trailing
b0:
  x = const 42 ; the answer
  ret x
}`)
	if f.Blocks[0].Instrs[0].Imm != 42 {
		t.Fatal("const immediate lost")
	}
}

func TestParseCallAndMemoryOps(t *testing.T) {
	f := MustParse(`
func m ssa {
b0:
  a = param 0
  b = load a
  c = call a, b
  d = call
  store a, c
  e = copy d
  ret e
}`)
	ops := []Op{OpParam, OpLoad, OpCall, OpCall, OpStore, OpCopy, OpReturn}
	for i, want := range ops {
		if got := f.Blocks[0].Instrs[i].Op; got != want {
			t.Errorf("instr %d op = %v, want %v", i, got, want)
		}
	}
	if n := len(f.Blocks[0].Instrs[2].Uses); n != 2 {
		t.Errorf("call arity = %d", n)
	}
	if n := len(f.Blocks[0].Instrs[3].Uses); n != 0 {
		t.Errorf("nullary call arity = %d", n)
	}
}

// TestValidateRewrite checks that validating a rewrite against its input's
// dominance tree is exactly as strict as validating it from scratch: a
// same-CFG rewrite is checked against the input's tree, and a rewrite that
// changed the CFG — here an added edge b0→b2 that stops b1 from dominating
// a use in b2 — is not judged by the stale tree.
func TestValidateRewrite(t *testing.T) {
	f := MustParse(`
func f ssa {
b0:
  c = param 0
  br b1
b1:
  y = arith c, c
  br b2
b2:
  z = arith y, y
  ret z
}`)
	var s Scratch
	dom, err := s.ValidateAnalyzed(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateRewrite(f.Clone(), f, dom); err != nil {
		t.Fatalf("unchanged rewrite rejected: %v", err)
	}
	undominated := f.Clone() // same CFG, z uses itself
	undominated.Blocks[2].Instrs[0].Uses[0] = undominated.Blocks[2].Instrs[0].Def
	if err := s.ValidateRewrite(undominated, f, dom); err == nil || !errors.Is(err, raerr.ErrNotSSA) {
		t.Fatalf("same-CFG SSA violation not caught: %v", err)
	}
	rerouted := f.Clone()
	b0 := rerouted.Blocks[0]
	b0.Instrs[1] = Instr{Op: OpCondBr, Def: NoValue, Uses: []int{b0.Instrs[0].Def}, Targets: []int{1, 2}}
	b0.Succs = []int{1, 2}
	rerouted.Blocks[2].Preds = []int{1, 0}
	if err := s.ValidateRewrite(rerouted, f, dom); err == nil || !strings.Contains(err.Error(), "not dominated") {
		t.Fatalf("rewrite with a changed CFG judged by the input's dominance: %v", err)
	}
	if want := rerouted.Validate(); want == nil {
		t.Fatal("rerouted function unexpectedly valid")
	}
}

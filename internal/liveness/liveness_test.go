package liveness

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/ir"
)

func names(f *ir.Func) map[string]int {
	out := map[string]int{}
	for id, n := range f.ValueName {
		out[n] = id
	}
	return out
}

func sortedNames(f *ir.Func, vals []int) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = f.NameOf(v)
	}
	sort.Strings(out)
	return out
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestStraightLine(t *testing.T) {
	f := ir.MustParse(`
func s ssa {
b0:
  a = param 0
  b = arith a, a
  c = arith b, a
  ret c
}`)
	info := Compute(f)
	if len(info.LiveIn[0]) != 0 {
		t.Fatalf("live-in of entry = %v", info.LiveIn[0])
	}
	if len(info.LiveOut[0]) != 0 {
		t.Fatalf("live-out of exit block = %v", info.LiveOut[0])
	}
	// Pressure: a alone; then a,b; then c. MaxLive = 2.
	if info.MaxLive != 2 {
		t.Fatalf("MaxLive = %d, want 2", info.MaxLive)
	}
}

func TestDiamondLiveness(t *testing.T) {
	f := ir.MustParse(`
func d ssa {
b0:
  x = param 0
  k = param 1
  c = unary x
  condbr c, b1, b2
b1:
  y = arith x, k
  br b3
b2:
  z = arith x, x
  br b3
b3:
  m = phi [b1: y], [b2: z]
  r = arith m, k
  ret r
}`)
	info := Compute(f)
	n := names(f)
	// k is live into both arms (used by b1 and by b3).
	liveInB1 := sortedNames(f, info.LiveIn[1])
	if !eq(liveInB1, []string{"k", "x"}) {
		t.Fatalf("live-in b1 = %v", liveInB1)
	}
	// Phi semantics: m is live-in of b3, y/z are not.
	liveInB3 := sortedNames(f, info.LiveIn[3])
	if !eq(liveInB3, []string{"k", "m"}) {
		t.Fatalf("live-in b3 = %v", liveInB3)
	}
	// y is live out of b1 (phi use on that edge), z out of b2.
	if got := sortedNames(f, info.LiveOut[1]); !eq(got, []string{"k", "y"}) {
		t.Fatalf("live-out b1 = %v", got)
	}
	if got := sortedNames(f, info.LiveOut[2]); !eq(got, []string{"k", "z"}) {
		t.Fatalf("live-out b2 = %v", got)
	}
	_ = n
}

func TestLoopLiveness(t *testing.T) {
	f := ir.MustParse(`
func l ssa {
b0:
  n = param 0
  inv = param 1
  br b1
b1:
  i = phi [b0: n], [b2: j]
  c = unary i
  condbr c, b2, b3
b2:
  j = arith i, inv
  br b1
b3:
  r = arith i, inv
  ret r
}`)
	info := Compute(f)
	// inv is live throughout the loop (used in body and after).
	if got := sortedNames(f, info.LiveIn[1]); !eq(got, []string{"i", "inv"}) {
		t.Fatalf("live-in b1 = %v", got)
	}
	if got := sortedNames(f, info.LiveOut[2]); !eq(got, []string{"inv", "j"}) {
		t.Fatalf("live-out b2 = %v", got)
	}
	// On the back edge, j is live out of b2 as a phi use; i dies at its
	// last use in b2.
	for _, p := range info.Points {
		if len(p.Live) > info.MaxLive {
			t.Fatal("point exceeds MaxLive")
		}
	}
}

func TestDeadDefStillOccupiesPoint(t *testing.T) {
	f := ir.MustParse(`
func dead ssa {
b0:
  a = param 0
  b = arith a, a
  ret a
}`)
	info := Compute(f)
	// b is dead, but it still needs a destination register at the instant
	// it is defined, while a holds its register: MaxLive = 2, and the
	// def-instant point {a, b} is recorded.
	if info.MaxLive != 2 {
		t.Fatalf("MaxLive = %d, want 2", info.MaxLive)
	}
	found := false
	for _, p := range info.Points {
		if len(p.Live) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("def-instant point {a, b} missing")
	}
}

func TestMaxLiveMatchesPointMaximum(t *testing.T) {
	f := ir.MustParse(`
func m ssa {
b0:
  a = param 0
  b = param 1
  c = param 2
  d = arith a, b
  e = arith d, c
  f1 = arith e, a
  ret f1
}`)
	info := Compute(f)
	max := 0
	for _, p := range info.Points {
		if len(p.Live) > max {
			max = len(p.Live)
		}
	}
	if info.MaxLive != max {
		t.Fatalf("MaxLive = %d, point max = %d", info.MaxLive, max)
	}
	// a, b, c live simultaneously before d; a, c, d before e ⇒ MaxLive 3.
	if info.MaxLive != 3 {
		t.Fatalf("MaxLive = %d, want 3", info.MaxLive)
	}
}

func TestPhiDefsCountedAtBoundary(t *testing.T) {
	// Two phis in one block both occupy registers at the block boundary.
	f := ir.MustParse(`
func p ssa {
b0:
  a = param 0
  b = param 1
  c = unary a
  condbr c, b1, b2
b1:
  x1 = arith a, a
  y1 = arith b, b
  br b3
b2:
  x2 = arith a, b
  y2 = arith b, a
  br b3
b3:
  x = phi [b1: x1], [b2: x2]
  y = phi [b1: y1], [b2: y2]
  r = arith x, y
  ret r
}`)
	info := Compute(f)
	if got := sortedNames(f, info.LiveIn[3]); !eq(got, []string{"x", "y"}) {
		t.Fatalf("live-in b3 = %v", got)
	}
	// First point of b3 must include both phi defs.
	for _, p := range info.Points {
		if p.Block == 3 {
			if len(p.Live) < 2 {
				t.Fatalf("first point of b3 has %v", sortedNames(f, p.Live))
			}
			break
		}
	}
}

func TestNonSSALiveness(t *testing.T) {
	// x redefined on both arms; both defs reach the use in b3.
	f := ir.MustParse(`
func ns {
b0:
  x = param 0
  c = unary x
  condbr c, b1, b2
b1:
  x = arith x, x
  br b3
b2:
  x = arith x, c
  br b3
b3:
  ret x
}`)
	info := Compute(f)
	if got := sortedNames(f, info.LiveIn[3]); !eq(got, []string{"x"}) {
		t.Fatalf("live-in b3 = %v", got)
	}
	if got := sortedNames(f, info.LiveOut[1]); !eq(got, []string{"x"}) {
		t.Fatalf("live-out b1 = %v", got)
	}
}

// TestScratchComputeMatchesFresh: the arena-backed Scratch must produce the
// same analysis as the package-level Compute, call after call, including
// after the arena has been recycled by a differently-shaped function.
func TestScratchComputeMatchesFresh(t *testing.T) {
	srcs := []string{`
func a ssa {
b0:
  x = param 0
  y = param 1
  br b1
b1:
  i = phi [b0: x], [b1: j]
  j = arith i, y
  c = unary j
  condbr c, b1, b2
b2:
  ret j
}`, `
func b ssa {
b0:
  x = param 0
  ret x
}`, `
func c {
b0:
  v = param 0
  w = arith v, v
  v = unary w
  store v, w
  ret v
}`}
	s := NewScratch()
	// Two passes: the second exercises reuse of a dirtied arena.
	for pass := 0; pass < 2; pass++ {
		for _, src := range srcs {
			f := ir.MustParse(src)
			fresh := Compute(f)
			reused := s.Compute(f)
			if len(fresh.Points) != len(reused.Points) || fresh.MaxLive != reused.MaxLive {
				t.Fatalf("pass %d %s: point/maxlive mismatch", pass, f.Name)
			}
			for i := range fresh.Points {
				if !slices.Equal(fresh.Points[i].Live, reused.Points[i].Live) {
					t.Fatalf("pass %d %s: point %d live set differs: %v vs %v",
						pass, f.Name, i, fresh.Points[i].Live, reused.Points[i].Live)
				}
			}
			for b := range fresh.LiveIn {
				if !slices.Equal(fresh.LiveIn[b], reused.LiveIn[b]) ||
					!slices.Equal(fresh.LiveOut[b], reused.LiveOut[b]) {
					t.Fatalf("pass %d %s: block %d live-in/out differs", pass, f.Name, b)
				}
			}
		}
	}
}

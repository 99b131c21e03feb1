package cliques

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/bitset"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/liveness"
)

// deriveInduced is the test oracle for Project: it derives the clique
// structure of the subgraph induced by include straight from liveness, the
// way the constrained driver once did for every register class — a vertex
// numbering over the included values, the projected program-point live sets
// interned in point order, def-point sets read at each value's definition
// instant, and the dominance PEO with excluded definitions skipped.
func deriveInduced(info *liveness.Info, dom *ir.Dominance, include []bool) *Structure {
	f := info.F
	nv := f.NumValues
	s := &Structure{F: f}
	present := make([]bool, nv)
	mark := func(v int) {
		if v >= 0 && v < nv && include[v] {
			present[v] = true
		}
	}
	for _, blk := range f.Blocks {
		for _, ins := range blk.Instrs {
			if ins.Op.HasDef() && ins.Def != ir.NoValue {
				mark(ins.Def)
			}
			for _, u := range ins.Uses {
				mark(u)
			}
		}
	}
	for _, p := range info.Points {
		for _, v := range p.Live {
			mark(v)
		}
	}
	s.VertexOf = make([]int, nv)
	s.ValueOf = []int{}
	for v := 0; v < nv; v++ {
		s.VertexOf[v] = -1
		if present[v] {
			s.VertexOf[v] = len(s.ValueOf)
			s.ValueOf = append(s.ValueOf, v)
		}
	}
	s.N = len(s.ValueOf)

	intern := bitset.NewInterner(len(info.Points))
	pointSet := make([]int, len(info.Points))
	for pi, p := range info.Points {
		var vs []int
		for _, v := range p.Live {
			if vx := s.VertexOf[v]; vx >= 0 {
				vs = append(vs, vx)
			}
		}
		pointSet[pi] = -1
		if len(vs) > 0 {
			s.MaxLive = max(s.MaxLive, len(vs))
			pointSet[pi], _ = intern.Intern(vs)
		}
	}
	s.Sets = append([][]int{}, intern.Sets()...)
	s.DefSetOf = make([]int32, s.N)
	for vx, val := range s.ValueOf {
		dp := info.DefPointOf[val]
		if dp < 0 || pointSet[dp] < 0 {
			return nil
		}
		s.DefSetOf[vx] = int32(pointSet[dp])
	}

	peo := make([]int, s.N)
	next := s.N
	stack := []int{0}
	for len(stack) > 0 {
		bid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ins := range f.Blocks[bid].Instrs {
			if ins.Op.HasDef() && ins.Def != ir.NoValue && s.VertexOf[ins.Def] >= 0 {
				next--
				peo[next] = s.VertexOf[ins.Def]
			}
		}
		children := dom.Children[bid]
		for i := len(children) - 1; i >= 0; i-- {
			stack = append(stack, children[i])
		}
	}
	if next != 0 {
		return nil
	}
	s.PEO = peo

	s.CliqueOff = make([]int32, s.N+1)
	for _, set := range s.Sets {
		for _, v := range set {
			s.CliqueOff[v+1]++
		}
	}
	for v := 0; v < s.N; v++ {
		s.CliqueOff[v+1] += s.CliqueOff[v]
	}
	s.CliqueIdx = make([]int32, s.CliqueOff[s.N])
	fill := make([]int32, s.N)
	copy(fill, s.CliqueOff)
	for ci, set := range s.Sets {
		for _, v := range set {
			s.CliqueIdx[fill[v]] = int32(ci)
			fill[v]++
		}
	}
	return s
}

// exported returns a copy of s without its unexported caches and buffers,
// for comparison by reflect.DeepEqual.
func exported(s *Structure) Structure {
	c := *s
	c.degrees, c.setSlab, c.degBuf = nil, nil, nil
	return c
}

// TestProjectMatchesInducedDerivation checks Project against the oracle
// derivation on 3 machines × 300 seeds: for every register class and for
// random value masks, the projection must equal the structure derived from
// liveness for the same subset, field for field. One dst per mask kind is
// reused throughout, so stale memory from a larger earlier projection would
// show up as a mismatch.
func TestProjectMatchesInducedDerivation(t *testing.T) {
	scratch := NewScratch()
	var classDst [ir.NumClasses]Structure
	var randDst Structure
	rng := rand.New(rand.NewSource(13))
	cases := 0
	for _, name := range arch.Names() {
		m, err := arch.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cons := m.Constraints(4)
		for seed := int64(0); seed < 300; seed++ {
			f := irgen.ConstrainedFromSeed(seed, cons)
			dom := f.ComputeDominance()
			info := liveness.Compute(f)
			full := Derive(info, dom, scratch)
			if full == nil {
				t.Fatalf("%s seed %d: derivation failed", name, seed)
			}
			check := func(label string, include []bool, dst *Structure) {
				t.Helper()
				want := deriveInduced(info, dom, include)
				if want == nil {
					t.Fatalf("%s seed %d %s: oracle derivation failed", name, seed, label)
				}
				if want.N == 0 {
					return // the driver never projects an empty mask
				}
				got := full.Project(include, dst, scratch)
				if got.N == full.N && got != full {
					t.Fatalf("%s seed %d %s: a mask keeping every vertex must return the full structure", name, seed, label)
				}
				if !reflect.DeepEqual(exported(got), exported(want)) {
					t.Fatalf("%s seed %d %s: projection differs from the induced derivation\ngot  %+v\nwant %+v",
						name, seed, label, exported(got), exported(want))
				}
				if !slices.Equal(got.Degrees(), want.Degrees()) {
					t.Fatalf("%s seed %d %s: projected degrees %v, induced %v",
						name, seed, label, got.Degrees(), want.Degrees())
				}
				cases++
			}
			include := make([]bool, f.NumValues)
			for c := ir.Class(0); c < ir.NumClasses; c++ {
				for v := range include {
					include[v] = f.ClassOf(v) == c
				}
				check("class "+c.String(), include, &classDst[c])
			}
			keep := rng.Float64()
			for v := range include {
				include[v] = rng.Float64() < keep
			}
			check("random mask", include, &randDst)
			for v := range include {
				include[v] = true
			}
			check("full mask", include, &randDst)
		}
	}
	if cases < 1500 {
		t.Fatalf("only %d non-empty projections checked", cases)
	}
}

package cliques_test

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitset"
	"repro/internal/cliques"
	"repro/internal/ir"
	"repro/internal/liveness"
)

// oracleDerive is the derivation as it was before live sets were interned
// untranslated: vertices are numbered over every value defined, used or
// live anywhere, each point's live set is translated to vertex IDs and then
// interned by copy, and the distinct sets are copied once more into the
// retained slab. It returns nil where Derive must.
func oracleDerive(info *liveness.Info, dom *ir.Dominance) *cliques.Structure {
	f := info.F
	nv := f.NumValues
	s := &cliques.Structure{F: f, MaxLive: info.MaxLive}
	present := bitset.New(nv)
	mark := func(v int) {
		if v >= 0 && v < nv {
			present.Add(v)
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
	s.N = present.Count()
	s.VertexOf = make([]int, nv)
	for i := range s.VertexOf {
		s.VertexOf[i] = -1
	}
	s.ValueOf = make([]int, 0, s.N)
	present.ForEach(func(v int) {
		s.VertexOf[v] = len(s.ValueOf)
		s.ValueOf = append(s.ValueOf, v)
	})

	intern := bitset.NewInterner(64)
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
			pointSet[pi], _ = intern.Intern(vs)
		}
	}
	s.DefSetOf = make([]int32, s.N)
	for vx, val := range s.ValueOf {
		dp := info.DefPointOf[val]
		if dp < 0 || dp >= len(pointSet) || pointSet[dp] < 0 {
			return nil
		}
		s.DefSetOf[vx] = int32(pointSet[dp])
	}
	if s.PEO = cliques.DominancePEO(f, dom, s.VertexOf, s.N); s.PEO == nil {
		return nil
	}
	for _, set := range intern.Sets() {
		s.Sets = append(s.Sets, append([]int(nil), set...))
	}
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
	fill := append([]int32(nil), s.CliqueOff[:s.N]...)
	for ci, set := range s.Sets {
		for _, v := range set {
			s.CliqueIdx[fill[v]] = int32(ci)
			fill[v]++
		}
	}
	return s
}

// TestDeriveMatchesOracle checks Derive against the translate-then-intern
// oracle over every oracle input: both come back nil on the same inputs,
// and otherwise give the same vertex numbering, sets in the same order,
// def-point sets, elimination order, membership index and MaxLive. One Scratch of each kind serves every
// input, so stale memory would show up as a mismatch.
func TestDeriveMatchesOracle(t *testing.T) {
	names, funcs, err := bench.OracleInputs("../ir/testdata")
	if err != nil {
		t.Fatal(err)
	}
	live := liveness.NewScratch()
	scratch := cliques.NewScratch()
	derived := 0
	for i, f := range funcs {
		dom := f.ComputeDominance()
		info := live.Compute(f)
		got, want := cliques.Derive(info, dom, scratch), oracleDerive(info, dom)
		if (got == nil) != (want == nil) {
			t.Fatalf("%s: derivation nil = %v, oracle nil = %v", names[i], got == nil, want == nil)
		}
		if got == nil {
			continue
		}
		derived++
		for _, c := range []struct {
			field     string
			got, want any
		}{
			{"N", got.N, want.N},
			{"VertexOf", got.VertexOf, want.VertexOf},
			{"ValueOf", got.ValueOf, want.ValueOf},
			{"Sets", got.Sets, want.Sets},
			{"DefSetOf", got.DefSetOf, want.DefSetOf},
			{"PEO", got.PEO, want.PEO},
			{"CliqueOff", got.CliqueOff, want.CliqueOff},
			{"CliqueIdx", got.CliqueIdx, want.CliqueIdx},
			{"MaxLive", got.MaxLive, want.MaxLive},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("%s: %s differs from the oracle\ngot  %v\nwant %v", names[i], c.field, c.got, c.want)
			}
		}
	}
	if derived < 300 {
		t.Fatalf("only %d inputs took the fast path", derived)
	}
}

package linearscan_test

import (
	"reflect"
	"testing"

	"repro/internal/alloc/linearscan"
	"repro/internal/bench"
	"repro/internal/cliques"
	"repro/internal/ifg"
	"repro/internal/ir"
	"repro/internal/liveness"
)

// scanIntervals is the interval construction as it was before liveness
// recorded spans: every vertex's interval grows over every point whose live
// set holds its value. (It also gave a dead definition its block's first
// point when no live set held it; TestIntervalsMatchScanOracle asserts that
// never happens.)
func scanIntervals(info *liveness.Info, vertexOf []int, n int) [][2]int {
	intervals := make([][2]int, n)
	for i := range intervals {
		intervals[i] = [2]int{0, -1}
	}
	for pt, p := range info.Points {
		for _, val := range p.Live {
			vx := vertexOf[val]
			if vx < 0 {
				continue
			}
			iv := &intervals[vx]
			if iv[1] < iv[0] {
				*iv = [2]int{pt, pt}
			}
			iv[0], iv[1] = min(iv[0], pt), max(iv[1], pt)
		}
	}
	return intervals
}

// TestIntervalsMatchScanOracle checks the span-based intervals against the
// point-scan oracle over the oracle inputs, with the vertex numbering of the
// explicit interference graph and, where it applies, of the clique fast
// path. It also asserts the invariant that made the old dead-definition
// fallback unreachable: every defined value, reachable or not, has a span.
func TestIntervalsMatchScanOracle(t *testing.T) {
	names, funcs, err := bench.OracleInputs("../../ir/testdata")
	if err != nil {
		t.Fatal(err)
	}
	live := liveness.NewScratch()
	for i, f := range funcs {
		info := live.Compute(f)
		for _, blk := range f.Blocks {
			for _, ins := range blk.Instrs {
				if ins.Op.HasDef() && ins.Def != ir.NoValue && info.FirstPoint[ins.Def] < 0 {
					t.Fatalf("%s: %s defined in %s has no span", names[i], f.NameOf(ins.Def), blk.Name)
				}
			}
		}
		b := ifg.FromLiveness(info)
		check := func(label string, vertexOf []int, n int) {
			t.Helper()
			got, want := linearscan.IntervalsFromLiveness(info, vertexOf, n), scanIntervals(info, vertexOf, n)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (%s numbering): intervals differ from the point scan\ngot  %v\nwant %v",
					names[i], label, got, want)
			}
		}
		check("ifg", b.VertexOf, b.Graph.N())
		if dom := f.ComputeDominance(); cliques.Applicable(f, dom) {
			if cs := cliques.Derive(info, dom, nil); cs != nil {
				check("cliques", cs.VertexOf, cs.N)
			}
		}
	}
}

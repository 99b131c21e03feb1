package liveness_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitset"
	"repro/internal/ir"
	"repro/internal/liveness"
)

// oracleBlocks is the block-level dataflow as it was before gen sets and
// fused set operations: use, def and phi-def sets per block, phi operands
// per predecessor slot, and a backward round-robin fixpoint that copies
// through a temporary set. It returns the live-in and live-out sets.
func oracleBlocks(f *ir.Func) (liveIn, liveOut []bitset.Set) {
	n, nv := len(f.Blocks), f.NumValues
	use, def, phiDef := bitset.NewSlab(n, nv), bitset.NewSlab(n, nv), bitset.NewSlab(n, nv)
	phiUse := make([]map[int]bitset.Set, n) // block → predecessor slot → operands
	for _, b := range f.Blocks {
		for _, ins := range b.Instrs {
			if ins.Op == ir.OpPhi {
				phiDef[b.ID].Add(ins.Def)
				def[b.ID].Add(ins.Def)
				if b.Instrs[0].Op != ir.OpPhi {
					continue
				}
				for k, u := range ins.Uses {
					if k >= len(b.Preds) {
						continue
					}
					if phiUse[b.ID] == nil {
						phiUse[b.ID] = map[int]bitset.Set{}
					}
					if phiUse[b.ID][k] == nil {
						phiUse[b.ID][k] = bitset.New(nv)
					}
					phiUse[b.ID][k].Add(u)
				}
				continue
			}
			for _, u := range ins.Uses {
				if !def[b.ID].Has(u) {
					use[b.ID].Add(u)
				}
			}
			if ins.Op.HasDef() && ins.Def != ir.NoValue {
				def[b.ID].Add(ins.Def)
			}
		}
	}
	liveIn, liveOut = bitset.NewSlab(n, nv), bitset.NewSlab(n, nv)
	tmp := bitset.New(nv)
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := liveOut[b.ID]
			for _, s := range b.Succs {
				tmp.CopyFrom(liveIn[s])
				for w, bits := range phiDef[s] {
					tmp[w] &^= bits
				}
				changed = out.OrChanged(tmp) || changed
				for k, p := range f.Blocks[s].Preds {
					if p == b.ID && phiUse[s][k] != nil {
						changed = out.OrChanged(phiUse[s][k]) || changed
					}
				}
			}
			in := liveIn[b.ID]
			changed = in.OrChanged(use[b.ID]) || changed
			changed = in.OrChanged(phiDef[b.ID]) || changed
			tmp.CopyFrom(out)
			for w, bits := range def[b.ID] {
				tmp[w] &^= bits
			}
			changed = in.OrChanged(tmp) || changed
		}
	}
	return liveIn, liveOut
}

// oraclePoints is the per-point walk as it was before the sorted live list:
// the live set is a bitset over every value, copied from the block's
// live-out set and snapshotted with AppendTo, which scans all NumValues bits
// at every point. It returns the Points, DefPointOf and MaxLive the walk
// produces from the live-out sets.
func oraclePoints(f *ir.Func, liveOut []bitset.Set) ([]liveness.Point, []int, int) {
	nv := f.NumValues
	live := bitset.New(nv)
	snapshot := func() []int {
		return live.AppendTo(make([]int, 0, live.Count()))
	}
	var points []liveness.Point
	defPointOf := make([]int, nv)
	for i := range defPointOf {
		defPointOf[i] = -1
	}
	for _, b := range f.Blocks {
		live.CopyFrom(liveOut[b.ID])
		endPoint := liveness.Point{Block: b.ID, Index: len(b.Instrs), Live: snapshot()}
		base := len(points)
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			ins := &b.Instrs[i]
			if ins.Op == ir.OpPhi {
				continue
			}
			if ins.Op.HasDef() && ins.Def != ir.NoValue {
				if !live.Has(ins.Def) {
					live.Add(ins.Def)
					points = append(points, liveness.Point{Block: b.ID, Index: i, Live: snapshot()})
					defPointOf[ins.Def] = -(len(points) - base - 1 + 3)
				} else if len(points) > base {
					defPointOf[ins.Def] = -(len(points) - base - 1 + 3)
				} else {
					defPointOf[ins.Def] = -2
				}
				live.Remove(ins.Def)
			}
			for _, u := range ins.Uses {
				live.Add(u)
			}
			points = append(points, liveness.Point{Block: b.ID, Index: i, Live: snapshot()})
		}
		m := len(points) - base
		seg := points[base:]
		for i, j := 0, len(seg)-1; i < j; i, j = i+1, j-1 {
			seg[i], seg[j] = seg[j], seg[i]
		}
		var phiDefs []int
		for _, ins := range b.Instrs {
			if ins.Op == ir.OpPhi {
				phiDefs = append(phiDefs, ins.Def)
			}
		}
		if len(phiDefs) > 0 {
			sort.Ints(phiDefs)
			first := &endPoint
			if m > 0 {
				first = &seg[0]
			}
			merged := live.Clone()
			merged.Clear()
			for _, v := range first.Live {
				merged.Add(v)
			}
			for _, v := range phiDefs {
				merged.Add(v)
			}
			first.Live = merged.AppendTo(nil)
		}
		for _, ins := range b.Instrs {
			if ins.Op == ir.OpPhi || !ins.Op.HasDef() || ins.Def == ir.NoValue {
				continue
			}
			switch dp := defPointOf[ins.Def]; {
			case dp == -2:
				defPointOf[ins.Def] = base + m
			case dp <= -3:
				defPointOf[ins.Def] = base + (m - 1 - (-dp - 3))
			}
		}
		for _, pd := range phiDefs {
			defPointOf[pd] = base
		}
		points = append(points, endPoint)
	}
	maxLive := 0
	for _, p := range points {
		maxLive = max(maxLive, len(p.Live))
	}
	return points, defPointOf, maxLive
}

// scanSpans derives every value's first and last live point by scanning
// all live sets.
func scanSpans(points []liveness.Point, nv int) (first, last []int) {
	first, last = make([]int, nv), make([]int, nv)
	for v := range first {
		first[v], last[v] = -1, -1
	}
	for pt, p := range points {
		for _, v := range p.Live {
			if first[v] < 0 {
				first[v] = pt
			}
			last[v] = pt
		}
	}
	return first, last
}

// TestPointsMatchBitsetOracle checks liveness against the bitset oracle
// over the oracle inputs: the same live-in and live-out sets, the same
// points in the same order with the same live sets, the same definition
// instants and MaxLive, and spans equal to a scan of the points. One Scratch serves every input, so
// stale memory from a larger earlier function would show up as a mismatch.
func TestPointsMatchBitsetOracle(t *testing.T) {
	names, funcs, err := bench.OracleInputs("../ir/testdata")
	if err != nil {
		t.Fatal(err)
	}
	s := liveness.NewScratch()
	for i, f := range funcs {
		info := s.Compute(f)
		liveIn, liveOut := oracleBlocks(f)
		for b := range f.Blocks {
			if !reflect.DeepEqual(info.LiveIn[b], liveIn[b].AppendTo([]int{})) ||
				!reflect.DeepEqual(info.LiveOut[b], liveOut[b].AppendTo([]int{})) {
				t.Fatalf("%s: block %d live-in/out differs from the oracle", names[i], b)
			}
		}
		points, defPointOf, maxLive := oraclePoints(f, liveOut)
		if !reflect.DeepEqual(info.Points, points) {
			t.Fatalf("%s: points differ from the bitset oracle", names[i])
		}
		if !reflect.DeepEqual(info.DefPointOf, defPointOf) {
			t.Fatalf("%s: DefPointOf %v, oracle %v", names[i], info.DefPointOf, defPointOf)
		}
		if info.MaxLive != maxLive {
			t.Fatalf("%s: MaxLive %d, oracle %d", names[i], info.MaxLive, maxLive)
		}
		first, last := scanSpans(points, f.NumValues)
		if !reflect.DeepEqual(info.FirstPoint, first) || !reflect.DeepEqual(info.LastPoint, last) {
			t.Fatalf("%s: spans differ from a scan of the points\nfirst %v\nscan  %v\nlast  %v\nscan  %v",
				names[i], info.FirstPoint, first, info.LastPoint, last)
		}
	}
}

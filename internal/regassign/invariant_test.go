package regassign

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/alloc"
	"repro/internal/alloc/chaitin"
	"repro/internal/alloc/layered"
	"repro/internal/alloc/optimal"
	"repro/internal/ifg"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/spillcost"
)

// TestAssignInvariantCorpus is the direct test of the chordal/tree-scan
// guarantee: for every SSA corpus function, every allocator, and every
// register count, the tree-scan must succeed on the allocator's ≤-R allocation,
// give every allocated value a register in [0, R), and never let two
// simultaneously-live allocated values share one. The sharing check here is
// written against the raw per-point live sets, independently of
// VerifyAssignment.
func TestAssignInvariantCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "ir", "testdata", "*.ir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	allocators := []alloc.Allocator{
		layered.NL(), layered.BL(), layered.FPL(), layered.BFPL(),
		chaitin.New(), optimal.New(),
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		f := ir.MustParse(string(src))
		if !f.SSA {
			continue
		}
		dom := f.ComputeDominance()
		f.ComputeLoops(dom)
		info := liveness.Compute(f)
		build := ifg.FromLiveness(info)
		costs := spillcost.Costs(f, spillcost.DefaultModel)
		for _, r := range []int{1, 2, 3, 4, 8} {
			p := alloc.BuildProblem(alloc.Spec{Build: build, Costs: costs, R: r})
			if !p.Chordal {
				t.Fatalf("%s: SSA function produced a non-chordal problem", file)
			}
			for _, a := range allocators {
				res := a.Allocate(p)
				if err := p.Validate(res); err != nil {
					t.Fatalf("%s R=%d %s: %v", file, r, a.Name(), err)
				}
				allocated := make([]bool, f.NumValues)
				for vx, al := range res.Allocated {
					if al {
						allocated[build.ValueOf[vx]] = true
					}
				}
				regOf, err := assign(f, info, allocated, r)
				if err != nil {
					t.Fatalf("%s R=%d %s: assignment failed on a valid allocation: %v",
						filepath.Base(file), r, a.Name(), err)
				}
				checkNoSharing(t, filepath.Base(file), r, a.Name(), info, allocated, regOf)
			}
		}
	}
}

func checkNoSharing(t *testing.T, file string, r int, allocName string,
	info *liveness.Info, allocated []bool, regOf []int) {
	t.Helper()
	f := info.F
	for v, al := range allocated {
		if al && (regOf[v] < 0 || regOf[v] >= r) {
			t.Fatalf("%s R=%d %s: allocated %s got register %d",
				file, r, allocName, f.NameOf(v), regOf[v])
		}
		if !al && regOf[v] != NoReg {
			t.Fatalf("%s R=%d %s: spilled %s got register %d",
				file, r, allocName, f.NameOf(v), regOf[v])
		}
	}
	for _, p := range info.Points {
		holder := make(map[int]int, r)
		for _, v := range p.Live {
			if !allocated[v] {
				continue
			}
			if prev, clash := holder[regOf[v]]; clash {
				t.Fatalf("%s R=%d %s: %s and %s share r%d at block %d point %d",
					file, r, allocName, f.NameOf(prev), f.NameOf(v), regOf[v], p.Block, p.Index)
			}
			holder[regOf[v]] = v
		}
	}
}

// TestAssignDeadPhiDef pins the tree-scan bug the differential harness
// found (see testdata/deadphi.ir): a phi def with no use in its block and
// not live-out must release its register after the block boundary instant.
// Before the fix, the scan reported "no free register" here at R = MaxLive.
func TestAssignDeadPhiDef(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "ir", "testdata", "deadphi.ir"))
	if err != nil {
		t.Fatal(err)
	}
	f := ir.MustParse(string(src))
	info := liveness.Compute(f)
	if info.MaxLive != 2 {
		t.Fatalf("MaxLive = %d, want 2 (reproducer drifted)", info.MaxLive)
	}
	regOf, err := assign(f, info, allTrue(f.NumValues), 2)
	if err != nil {
		t.Fatalf("assignment failed at R = MaxLive: %v", err)
	}
	if err := VerifyAssignment(info, allTrue(f.NumValues), regOf); err != nil {
		t.Fatal(err)
	}
}

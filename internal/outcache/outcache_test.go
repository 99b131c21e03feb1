package outcache_test

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/outcache"
	"repro/internal/pipeline"
	"repro/internal/spillcost"
)

// fold is the cache-key config every test in this file allocates under.
var fold = fingerprint.NewConfig(4, "", spillcost.Model{}, true, nil, 0)

func runFull(t testing.TB, f *ir.Func) *core.Outcome {
	t.Helper()
	out, err := pipeline.RunFunc(nil, f, core.Config{Registers: 4})
	if err != nil {
		t.Fatalf("pipeline run on %s: %v", f.Name, err)
	}
	return out
}

// render is the byte-identity witness: the full detailed report of one
// outcome, the same bytes FormatResults would emit for it in a module run.
func render(name string, out *core.Outcome) string {
	return pipeline.FormatResults([]pipeline.FuncResult{{Name: name, Outcome: out}}, true)
}

// admit stores out under key: the 2Q filter admits on the second sighting.
func admit(c *outcache.Cache, key outcache.Key, out *core.Outcome) {
	c.Put(key, out)
	c.Put(key, out)
}

// TestPutAdmissionAndGet pins the 2Q admission contract: the first Put of a
// fingerprint only records it in the ghost filter (no entry is built), the
// second admits, and a subsequent Get hits with a byte-identical outcome.
func TestPutAdmissionAndGet(t *testing.T) {
	c := outcache.New(128)
	f := irgen.FromSeed(11)
	key := fingerprint.Key(f, fold)
	out := runFull(t, f)

	if c.Get(key, f) != nil {
		t.Fatal("empty cache returned a hit")
	}
	c.Put(key, out)
	if s := c.Stats(); s.Entries != 0 || s.Admitted != 0 {
		t.Fatalf("first Put built an entry: %+v (2Q admission requires a second sighting)", s)
	}
	if c.Get(key, f) != nil {
		t.Fatal("ghost-only fingerprint returned a hit")
	}
	c.Put(key, out)
	s := c.Stats()
	if s.Entries != 1 || s.Admitted != 1 {
		t.Fatalf("second Put did not admit: %+v", s)
	}
	if s.Bytes <= 0 {
		t.Fatalf("admitted entry accounts no bytes: %+v", s)
	}

	hit := c.Get(key, f)
	if hit == nil {
		t.Fatal("resident entry missed")
	}
	if got, want := render(f.Name, hit), render(f.Name, out); got != want {
		t.Errorf("cache hit differs from the computed outcome:\n--- hit ---\n%s--- computed ---\n%s", got, want)
	}
	s = c.Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("counter mismatch: %+v (want 1 hit, 2 misses)", s)
	}
	if r := s.HitRate(); r <= 0.33 || r >= 0.34 {
		t.Fatalf("HitRate() = %v, want 1/3", r)
	}
}

// TestHitRebindsAlphaRenamedNames: an entry computed for one function must
// serve every alpha-renamed copy with the copy's own names — the formatted
// report of a hit for the twin is byte-identical to a full run on the twin.
func TestHitRebindsAlphaRenamedNames(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		f := irgen.FromSeed(seed)
		g := irgen.AlphaRename(f, fmt.Sprintf("twin%d", seed), int(seed))
		keyF := fingerprint.Key(f, fold)
		if keyF != fingerprint.Key(g, fold) {
			t.Fatalf("seed %d: alpha-renamed twin has a different key", seed)
		}

		c := outcache.New(16)
		admit(c, keyF, runFull(t, f))
		hit := c.Get(keyF, g)
		if hit == nil {
			t.Fatalf("seed %d: twin missed on a resident entry", seed)
		}
		want := render(g.Name, runFull(t, g))
		if got := render(g.Name, hit); got != want {
			t.Errorf("seed %d: rebound hit differs from a direct run on the twin:\n--- hit ---\n%s--- direct ---\n%s",
				seed, got, want)
		}
	}
}

// TestNoAliasing: cached state must survive arbitrary mutation of (a) the
// outcome that was Put and (b) outcomes handed out by Get. Both directions
// are deep-copied, so a later hit still renders the pristine bytes.
func TestNoAliasing(t *testing.T) {
	f := irgen.FromSeed(23)
	key := fingerprint.Key(f, fold)
	out := runFull(t, f)
	want := render(f.Name, runFull(t, f))

	c := outcache.New(16)
	admit(c, key, out)

	// Poison the inserted outcome after the fact.
	vandalize(out)

	hit1 := c.Get(key, f)
	if hit1 == nil {
		t.Fatal("miss on resident entry")
	}
	if got := render(f.Name, hit1); got != want {
		t.Fatal("mutating the Put outcome changed cached bytes (insert-side aliasing)")
	}

	// Poison the hit and fetch again.
	vandalize(hit1)
	hit2 := c.Get(key, f)
	if hit2 == nil {
		t.Fatal("miss on resident entry after hit mutation")
	}
	if got := render(f.Name, hit2); got != want {
		t.Fatal("mutating a Get outcome changed cached bytes (hit-side aliasing)")
	}
}

// vandalize mutates every reachable decision-level buffer of an outcome.
func vandalize(out *core.Outcome) {
	for i := range out.RegisterOf {
		out.RegisterOf[i] = -7
	}
	for i := range out.SpilledValues {
		out.SpilledValues[i] = 0
	}
	for i := range out.Problem.Weight {
		out.Problem.Weight[i] = -1
	}
	for i := range out.Result.Allocated {
		out.Result.Allocated[i] = !out.Result.Allocated[i]
	}
	out.SpillCost = -999
	out.MaxLive = -1
	if g := out.Rewritten; g != nil {
		g.Name = "vandalized"
		for _, b := range g.Blocks {
			b.Name = "poof"
			for i := range b.Instrs {
				b.Instrs[i].Imm = -123456
			}
		}
	}
}

// TestEvictionBound: the capacity is a hard ceiling — over-filling a small
// cache evicts rather than grows, the accounting balances, and the most
// recently admitted entry is still resident.
func TestEvictionBound(t *testing.T) {
	const capacity = 8
	c := outcache.New(capacity) // < 64 ⇒ single shard, exact bound
	if c.Capacity() != capacity {
		t.Fatalf("Capacity() = %d, want %d", c.Capacity(), capacity)
	}

	var lastKey outcache.Key
	var lastF *ir.Func
	const n = 32
	for i := 0; i < n; i++ {
		f := irgen.FromSeed(int64(1000 + i))
		key := fingerprint.Key(f, fold)
		admit(c, key, runFull(t, f))
		lastKey, lastF = key, f
	}

	s := c.Stats()
	if s.Entries > capacity {
		t.Fatalf("resident entries %d exceed capacity %d", s.Entries, capacity)
	}
	if s.Admitted != n {
		t.Fatalf("Admitted = %d, want %d", s.Admitted, n)
	}
	if got, want := s.Evicted, uint64(n-s.Entries); got != want {
		t.Fatalf("Evicted = %d, want Admitted-Entries = %d", got, want)
	}
	if c.Len() != s.Entries {
		t.Fatalf("Len() = %d disagrees with Stats().Entries = %d", c.Len(), s.Entries)
	}
	if s.Bytes <= 0 {
		t.Fatalf("resident bytes %d not positive with %d entries", s.Bytes, s.Entries)
	}
	if c.Get(lastKey, lastF) == nil {
		t.Error("most recently admitted entry was evicted (LRU order violated)")
	}

	// Draining the cache by eviction must drive the byte accounting to the
	// residual of what remains, never negative.
	if s.Bytes < 0 {
		t.Fatalf("byte accounting went negative: %d", s.Bytes)
	}
}

// TestProtectedSegmentSurvivesScan: entries with hits are promoted to the
// protected segment and must survive a one-pass scan of one-hit wonders
// that would flush a plain LRU.
func TestProtectedSegmentSurvivesScan(t *testing.T) {
	const capacity = 10
	c := outcache.New(capacity)

	hot := irgen.FromSeed(77)
	hotKey := fingerprint.Key(hot, fold)
	admit(c, hotKey, runFull(t, hot))
	if c.Get(hotKey, hot) == nil { // promote to protected
		t.Fatal("hot entry missed immediately after admission")
	}

	// Scan: admit 2×capacity cold entries, never touched again.
	for i := 0; i < 2*capacity; i++ {
		f := irgen.FromSeed(int64(5000 + i))
		admit(c, fingerprint.Key(f, fold), runFull(t, f))
	}

	if c.Get(hotKey, hot) == nil {
		t.Error("protected entry evicted by a cold scan (2Q promotion not effective)")
	}
}

// TestMaterializeGuard: a Get against a function whose value-ID space does
// not match the stored entry must miss (the collision guard), not serve a
// wrong outcome.
func TestMaterializeGuard(t *testing.T) {
	f := irgen.FromSeed(31)
	key := fingerprint.Key(f, fold)
	c := outcache.New(16)
	admit(c, key, runFull(t, f))

	wrong := f.Clone()
	wrong.NumValues += 3
	if c.Get(key, wrong) != nil {
		t.Fatal("Get materialized against a mismatched value-ID space")
	}
	s := c.Stats()
	if s.Hits != 0 {
		t.Fatalf("guarded miss was counted as a hit: %+v", s)
	}
}

// TestConcurrentSoak hammers one small shared cache from many goroutines
// with a mixed Get/Put/Stats load over a working set larger than capacity,
// verifying every hit is byte-identical to the precomputed truth. CI runs
// the package under -race, so this is also the cache's data-race probe.
func TestConcurrentSoak(t *testing.T) {
	const nFuncs = 12
	type item struct {
		f    *ir.Func
		key  outcache.Key
		out  *core.Outcome
		want string
	}
	items := make([]item, nFuncs)
	for i := range items {
		f := irgen.FromSeed(int64(9000 + i))
		out := runFull(t, f)
		items[i] = item{f: f, key: fingerprint.Key(f, fold), out: out, want: render(f.Name, out)}
	}

	c := outcache.New(8) // smaller than the working set: eviction under fire
	workers := 8
	iters := 150
	if testing.Short() {
		iters = 40
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				it := &items[(w*31+i)%nFuncs]
				if hit := c.Get(it.key, it.f); hit != nil {
					if got := render(it.f.Name, hit); got != it.want {
						select {
						case errc <- fmt.Errorf("worker %d iter %d: hit for %s differs from truth", w, i, it.f.Name):
						default:
						}
						return
					}
				} else {
					c.Put(it.key, it.out)
				}
				if i%17 == 0 {
					_ = c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Entries > c.Capacity() {
		t.Fatalf("soak left %d entries in a capacity-%d cache", s.Entries, c.Capacity())
	}
	if s.Hits == 0 {
		t.Error("soak produced no hits (working set never resident?)")
	}
}

// TestDefaultCapacity: non-positive capacities normalize to the default.
func TestDefaultCapacity(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		c := outcache.New(capacity)
		if c.Capacity() != outcache.DefaultCapacity {
			t.Errorf("New(%d).Capacity() = %d, want DefaultCapacity %d",
				capacity, c.Capacity(), outcache.DefaultCapacity)
		}
	}
}

// TestEntryBytesCountsBody pins the entry's byte accounting of a rewritten
// body against the real in-memory sizes on a clobber-heavy machine function
// (on st231 every call clobbers the whole register file): each clobber
// costs one int, each instruction unsafe.Sizeof(ir.Instr{}), and each block
// its header plus the pointer to it.
func TestEntryBytesCountsBody(t *testing.T) {
	cons := arch.ST231.Constraints(8)
	// The function with the most clobbers among the first 100 seeds.
	var out *core.Outcome
	clobbers := 0
	for seed := int64(0); seed < 100; seed++ {
		f := irgen.ConstrainedFromSeed(seed, cons)
		o, err := core.Run(f, core.Config{Registers: 8, Constraints: cons})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, b := range o.Rewritten.Blocks {
			for _, ins := range b.Instrs {
				n += len(ins.Clobbers)
			}
		}
		if n > clobbers {
			out, clobbers = o, n
		}
	}
	if clobbers == 0 {
		t.Fatal("no clobbering call in 100 seeds")
	}
	t.Logf("%s: %d clobbers", out.F.Name, clobbers)
	bytesWith := func(edit func(g *ir.Func)) int64 {
		o := *out
		o.Rewritten = out.Rewritten.Clone()
		edit(o.Rewritten)
		return outcache.NewEntry(&o).Bytes()
	}
	base := bytesWith(func(*ir.Func) {})
	if got := base - bytesWith(func(g *ir.Func) {
		for _, b := range g.Blocks {
			for i := range b.Instrs {
				b.Instrs[i].Clobbers = nil
			}
		}
	}); got != int64(clobbers)*int64(unsafe.Sizeof(int(0))) {
		t.Errorf("%d clobbers account %d bytes, want %d", clobbers, got, clobbers*int(unsafe.Sizeof(int(0))))
	}
	if got := bytesWith(func(g *ir.Func) {
		b := g.Blocks[0]
		b.Instrs = append([]ir.Instr{{Op: ir.OpConst, Def: ir.NoValue}}, b.Instrs...)
	}) - base; got != int64(unsafe.Sizeof(ir.Instr{})) {
		t.Errorf("one instruction accounts %d bytes, want %d", got, unsafe.Sizeof(ir.Instr{}))
	}
	want := int64(unsafe.Sizeof(ir.Block{}) + unsafe.Sizeof(&ir.Block{}))
	if got := bytesWith(func(g *ir.Func) {
		g.Blocks = append(g.Blocks, &ir.Block{ID: len(g.Blocks)})
	}) - base; got != want {
		t.Errorf("one block accounts %d bytes, want %d", got, want)
	}
}

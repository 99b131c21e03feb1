package bitset

// Arena is a bump allocator for the transient structures of one analysis
// pass: bit sets (and slabs of them) plus plain []int scratch. It exists so
// a long-lived worker — the batch pipeline runs thousands of functions per
// worker — can recycle one backing allocation across functions instead of
// re-making every slab per call.
//
// Reset invalidates everything previously carved: callers own the lifetime
// contract (nothing handed out may be retained across Reset). Carving more
// than the current backing holds allocates a larger chunk; earlier carvings
// stay valid because the old chunk is only dropped, never overwritten.
//
// The zero value is ready to use. An Arena is not safe for concurrent use;
// give each worker its own.
type Arena struct {
	words []uint64
	wOff  int
	hdrs  []Set
	hOff  int
	ints  []int
	iOff  int
}

// Reset recycles the arena: every Set, slab and []int previously carved is
// invalidated and the backing memory is reused by subsequent carvings.
func (a *Arena) Reset() {
	a.wOff, a.hOff, a.iOff = 0, 0, 0
}

// grow* ensure room for n more elements, allocating a fresh chunk when the
// current one is exhausted (previously carved slices keep the old chunk
// alive until the next GC cycle after their own death).
//
// The offset into the current chunk always equals the Reset cycle's whole
// demand so far: a fresh chunk is sized to that demand plus the request (at
// least twice the old chunk, so a long cycle grows geometrically) and the
// carving continues at the same offset, leaving the new chunk's prefix
// unused until the next Reset. So a cycle ends with a chunk that holds its
// entire demand, and an arena replaying the same carvings allocates nothing
// from its second cycle on. A virgin arena's first chunk is exactly the
// request, so a one-shot use costs no more than direct allocation.

func (a *Arena) growWords(n int) {
	if a.wOff+n > len(a.words) {
		a.words = make([]uint64, max(a.wOff+n, 2*len(a.words)))
	}
}

func (a *Arena) growHdrs(n int) {
	if a.hOff+n > len(a.hdrs) {
		a.hdrs = make([]Set, max(a.hOff+n, 2*len(a.hdrs)))
	}
}

func (a *Arena) growInts(n int) {
	if a.iOff+n > len(a.ints) {
		a.ints = make([]int, max(a.iOff+n, 2*len(a.ints)))
	}
}

// Set carves one empty set over the universe [0, n).
func (a *Arena) Set(n int) Set {
	w := Words(n)
	a.growWords(w)
	s := Set(a.words[a.wOff : a.wOff+w : a.wOff+w])
	a.wOff += w
	s.Clear() // the chunk is reused across Reset
	return s
}

// Slab carves count empty sets over [0, n), contiguous in memory — the
// arena-backed equivalent of NewSlab.
func (a *Arena) Slab(count, n int) []Set {
	w := Words(n)
	a.growWords(count * w)
	a.growHdrs(count)
	base := a.words[a.wOff : a.wOff+count*w]
	for i := range base {
		base[i] = 0
	}
	out := a.hdrs[a.hOff : a.hOff+count : a.hOff+count]
	for i := range out {
		out[i] = Set(base[i*w : (i+1)*w : (i+1)*w])
	}
	a.wOff += count * w
	a.hOff += count
	return out
}

// Ints carves an empty []int with capacity n, for append-style filling
// without escaping to the heap.
func (a *Arena) Ints(n int) []int {
	a.growInts(n)
	s := a.ints[a.iOff : a.iOff : a.iOff+n]
	a.iOff += n
	return s
}

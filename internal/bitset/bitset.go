// Package bitset provides dense word-packed bit sets over small integer
// universes [0, n). They back the hot data structures of the allocator —
// graph adjacency rows, liveness sets, interference construction — replacing
// map[int]bool with O(n/64) bulk operations and allocation-free iteration.
//
// A Set is a plain []uint64; the zero value is the empty set over an empty
// universe. Or and OrChanged require the receiver to be sized for the
// operand's universe (len(s) >= len(t)); the remaining binary operations
// tolerate length mismatches by treating missing high words as zero.
package bitset

import (
	"math/bits"
	"sync"
)

const wordBits = 64

// Set is a bit set stored as little-endian 64-bit words: bit i lives in
// word i/64 at position i%64.
type Set []uint64

// Words returns the number of words needed for a universe of n bits.
func Words(n int) int { return (n + wordBits - 1) / wordBits }

// New returns an empty set sized for the universe [0, n).
func New(n int) Set { return make(Set, Words(n)) }

// NewSlab returns count empty sets over the universe [0, n), all sub-sliced
// (capacity-capped) from one backing allocation so they sit contiguously in
// memory — the layout for adjacency rows and per-block liveness sets.
func NewSlab(count, n int) []Set {
	w := Words(n)
	slab := make(Set, count*w)
	out := make([]Set, count)
	for i := range out {
		out[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

// Has reports whether i is in the set. i must be within the sized universe.
func (s Set) Has(i int) bool {
	w := i >> 6
	return w < len(s) && s[w]&(1<<(uint(i)&63)) != 0
}

// Add inserts i. i must be within the sized universe.
func (s Set) Add(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Remove deletes i (a no-op when absent).
func (s Set) Remove(i int) {
	if w := i >> 6; w < len(s) {
		s[w] &^= 1 << (uint(i) & 63)
	}
}

// Count returns the number of elements.
func (s Set) Count() int {
	total := 0
	for _, w := range s {
		total += bits.OnesCount64(w)
	}
	return total
}

// Clear removes every element, keeping capacity.
func (s Set) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// CopyFrom overwrites s with t. The sets must be sized for the same
// universe (len(s) >= len(t)); extra high words of s are zeroed.
func (s Set) CopyFrom(t Set) {
	n := copy(s, t)
	for i := n; i < len(s); i++ {
		s[i] = 0
	}
}

// Or adds every element of t to s (s |= t). The receiver must be sized for
// t's universe: len(s) >= len(t).
func (s Set) Or(t Set) {
	for i, w := range t {
		s[i] |= w
	}
}

// OrChanged performs s |= t and reports whether s changed. The receiver
// must be sized for t's universe: len(s) >= len(t).
func (s Set) OrChanged(t Set) bool {
	changed := false
	for i, w := range t {
		if old := s[i]; old|w != old {
			s[i] = old | w
			changed = true
		}
	}
	return changed
}

// OrAndNotChanged performs s |= t &^ u in one pass and reports whether s
// changed. The three sets must be sized for the same universe.
func (s Set) OrAndNotChanged(t, u Set) bool {
	changed := false
	u = u[:len(t)]
	for i, w := range t {
		w &^= u[i]
		if old := s[i]; old|w != old {
			s[i] = old | w
			changed = true
		}
	}
	return changed
}

// And intersects s with t (s &= t).
func (s Set) And(t Set) {
	for i := range s {
		if i < len(t) {
			s[i] &= t[i]
		} else {
			s[i] = 0
		}
	}
}

// IntersectionCount returns |s ∩ t| without materializing the intersection.
func (s Set) IntersectionCount(t Set) int {
	n := min(len(s), len(t))
	total := 0
	for i := 0; i < n; i++ {
		total += bits.OnesCount64(s[i] & t[i])
	}
	return total
}

// Equal reports whether s and t contain the same elements.
func (s Set) Equal(t Set) bool {
	n := max(len(s), len(t))
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(s) {
			a = s[i]
		}
		if i < len(t) {
			b = t[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// ForEach calls fn for every element in ascending order.
func (s Set) ForEach(fn func(i int)) {
	for wi, w := range s {
		base := wi << 6
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// AppendTo appends the elements in ascending order to dst and returns it.
func (s Set) AppendTo(dst []int) []int {
	for wi, w := range s {
		base := wi << 6
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// HashInts hashes an int slice with word-level FNV-1a, for deduplicating
// sets kept as sorted slices without building a string key. One
// xor-multiply per element: the hash is only a bucket key (collisions fall
// back to slice comparison), so discrimination matters and avalanche does
// not.
func HashInts(s []int) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, v := range s {
		h ^= uint64(v)
		h *= prime64
	}
	return h
}

// pool recycles scratch sets for transient use in hot loops. Get and Put
// traffic in *Set so the pooled box itself is reused and the steady state
// allocates nothing.
var pool = sync.Pool{New: func() any { return new(Set) }}

// Get returns a cleared scratch set sized for [0, n) from the pool. Return
// it with Put when done; Set's value-receiver methods work through the
// pointer unchanged.
func Get(n int) *Set {
	p := pool.Get().(*Set)
	w := Words(n)
	s := *p
	if cap(s) < w {
		s = make(Set, w)
	} else {
		s = s[:w]
		s.Clear()
	}
	*p = s
	return p
}

// Put returns a scratch set obtained from Get to the pool.
func Put(p *Set) {
	pool.Put(p)
}

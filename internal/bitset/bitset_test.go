package bitset

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestBasicOps(t *testing.T) {
	s := New(200)
	for _, v := range []int{0, 63, 64, 127, 128, 199} {
		if s.Has(v) {
			t.Fatalf("fresh set has %d", v)
		}
		s.Add(v)
		if !s.Has(v) {
			t.Fatalf("Add(%d) not visible", v)
		}
	}
	if got := s.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 5 {
		t.Fatalf("Remove(64) failed: count=%d", s.Count())
	}
	s.Clear()
	if s.Count() != 0 {
		t.Fatal("Clear left elements")
	}
}

func TestSetAlgebra(t *testing.T) {
	a, b := New(130), New(130)
	for _, v := range []int{1, 5, 64, 100} {
		a.Add(v)
	}
	for _, v := range []int{5, 64, 129} {
		b.Add(v)
	}

	or := a.Clone()
	or.Or(b)
	if got := or.AppendTo(nil); !equalInts(got, []int{1, 5, 64, 100, 129}) {
		t.Fatalf("Or = %v", got)
	}

	and := a.Clone()
	and.And(b)
	if got := and.AppendTo(nil); !equalInts(got, []int{5, 64}) {
		t.Fatalf("And = %v", got)
	}

	if got := a.IntersectionCount(b); got != 2 {
		t.Fatalf("IntersectionCount = %d, want 2", got)
	}

	c := a.Clone()
	if c.OrChanged(b) != true {
		t.Fatal("OrChanged on differing sets = false")
	}
	if c.OrChanged(b) != false {
		t.Fatal("OrChanged twice = true")
	}

	d := New(130)
	if !d.OrAndNotChanged(a, b) {
		t.Fatal("OrAndNotChanged into an empty set = false")
	}
	if got := d.AppendTo(nil); !equalInts(got, []int{1, 100}) {
		t.Fatalf("OrAndNotChanged = %v, want a minus b = [1 100]", got)
	}
	if d.OrAndNotChanged(a, b) {
		t.Fatal("OrAndNotChanged twice = true")
	}
}

func TestEqualAcrossSizes(t *testing.T) {
	a, b := New(64), New(256)
	for _, v := range []int{3, 17, 63} {
		a.Add(v)
		b.Add(v)
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("Equal fails across universe sizes")
	}
	b.Add(200)
	if a.Equal(b) {
		t.Fatal("Equal ignores high bits")
	}
}

func TestHashIntsMatchesElements(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		s := New(500)
		var vals []int
		for i := 0; i < 30; i++ {
			v := rng.Intn(500)
			if !s.Has(v) {
				s.Add(v)
				vals = append(vals, v)
			}
		}
		sort.Ints(vals)
		if HashInts(vals) != HashInts(s.AppendTo(nil)) {
			t.Fatal("HashInts not stable over identical content")
		}
	}
}

func TestForEachAscending(t *testing.T) {
	s := New(300)
	want := []int{0, 1, 63, 64, 65, 128, 250, 299}
	for _, v := range want {
		s.Add(v)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if !equalInts(got, want) {
		t.Fatalf("ForEach = %v, want %v", got, want)
	}
	if got2 := s.AppendTo(nil); !equalInts(got2, want) {
		t.Fatalf("AppendTo = %v, want %v", got2, want)
	}
}

func TestCopyFrom(t *testing.T) {
	a, b := New(128), New(128)
	a.Add(5)
	a.Add(127)
	b.Add(70)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Fatal("CopyFrom not an overwrite")
	}
}

func TestPool(t *testing.T) {
	s := Get(100)
	if s.Count() != 0 || len(*s) != Words(100) {
		t.Fatalf("Get returned dirty or mis-sized set: len=%d", len(*s))
	}
	s.Add(42)
	Put(s)
	s2 := Get(50)
	if s2.Count() != 0 {
		t.Fatal("pooled set not cleared on reuse")
	}
	Put(s2)
}

func TestInterner(t *testing.T) {
	it := NewInterner(4)
	a := []int{1, 5, 9}
	idx, added := it.Intern(a)
	if idx != 0 || !added {
		t.Fatalf("first Intern = (%d, %v), want (0, true)", idx, added)
	}
	// Mutating the caller's slice must not affect the interned copy.
	a[0] = 99
	if idx, added := it.Intern([]int{1, 5, 9}); idx != 0 || added {
		t.Fatalf("re-Intern = (%d, %v), want (0, false)", idx, added)
	}
	if idx, added := it.Intern([]int{1, 5}); idx != 1 || !added {
		t.Fatalf("prefix Intern = (%d, %v), want (1, true)", idx, added)
	}
	ref := []int{2, 4}
	if idx, added := it.InternRef(ref); idx != 2 || !added {
		t.Fatalf("InternRef = (%d, %v), want (2, true)", idx, added)
	}
	sets := it.Sets()
	if len(sets) != 3 || !equalInts(sets[0], []int{1, 5, 9}) ||
		!equalInts(sets[1], []int{1, 5}) || !equalInts(sets[2], []int{2, 4}) {
		t.Fatalf("Sets = %v", sets)
	}
	// InternRef shares the caller's backing array.
	ref[0] = 7
	if sets[2][0] != 7 {
		t.Fatal("InternRef copied instead of referencing")
	}
}

func TestInternerManyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	it := NewInterner(0)
	ref := make(map[string]int)
	var order []string
	for trial := 0; trial < 2000; trial++ {
		s := make([]int, rng.Intn(6))
		for i := range s {
			s[i] = rng.Intn(8)
		}
		sort.Ints(s)
		key := fmt.Sprint(s)
		idx, added := it.Intern(s)
		if want, ok := ref[key]; ok {
			if added || idx != want {
				t.Fatalf("Intern(%v) = (%d, %v), want (%d, false)", s, idx, added, want)
			}
		} else {
			if !added || idx != len(ref) {
				t.Fatalf("Intern(%v) = (%d, %v), want (%d, true)", s, idx, added, len(ref))
			}
			ref[key] = idx
			order = append(order, key)
		}
	}
	sets := it.Sets()
	if len(sets) != len(order) {
		t.Fatalf("Sets has %d entries, want %d", len(sets), len(order))
	}
	for i, key := range order {
		if fmt.Sprint(sets[i]) != key {
			t.Fatalf("Sets[%d] = %v, want %s", i, sets[i], key)
		}
	}
}

func TestRandomAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 700
	s := New(n)
	ref := make(map[int]bool)
	for op := 0; op < 5000; op++ {
		v := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			s.Add(v)
			ref[v] = true
		case 1:
			s.Remove(v)
			delete(ref, v)
		case 2:
			if s.Has(v) != ref[v] {
				t.Fatalf("Has(%d) mismatch at op %d", v, op)
			}
		}
	}
	if s.Count() != len(ref) {
		t.Fatalf("Count = %d, want %d", s.Count(), len(ref))
	}
	var want []int
	for v := range ref {
		want = append(want, v)
	}
	sort.Ints(want)
	if got := s.AppendTo(nil); !equalInts(got, want) {
		t.Fatalf("AppendTo mismatch: %v vs %v", got, want)
	}
}

func equalInts(a, b []int) bool {
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

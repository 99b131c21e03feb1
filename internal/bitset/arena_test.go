package bitset

import "testing"

func TestArenaSetAndSlab(t *testing.T) {
	var a Arena
	s := a.Set(130)
	s.Add(0)
	s.Add(129)
	if s.Count() != 2 || !s.Has(129) {
		t.Fatalf("arena set broken: %v", s)
	}
	slab := a.Slab(3, 70)
	for i, row := range slab {
		row.Add(i)
	}
	for i, row := range slab {
		if row.Count() != 1 || !row.Has(i) {
			t.Fatalf("slab row %d polluted: %v", i, row)
		}
	}
	// The earlier carving must be untouched by later ones.
	if s.Count() != 2 {
		t.Fatalf("earlier carving clobbered: %v", s)
	}
}

func TestArenaResetReusesAndClears(t *testing.T) {
	var a Arena
	for round := 0; round < 3; round++ {
		a.Reset()
		slab := a.Slab(4, 64)
		for _, row := range slab {
			if row.Count() != 0 {
				t.Fatalf("round %d: carved set not empty: %v", round, row)
			}
			row.Add(round)
		}
		s := a.Set(64)
		if s.Count() != 0 {
			t.Fatalf("round %d: carved set not empty", round)
		}
	}
}

func TestArenaGrowthKeepsEarlierCarvings(t *testing.T) {
	var a Arena
	first := a.Set(64)
	first.Add(7)
	// Force a growth well past the initial chunk.
	big := a.Set(1 << 20)
	big.Add(1 << 19)
	if !first.Has(7) || first.Count() != 1 {
		t.Fatal("growth invalidated an earlier carving")
	}
	if !big.Has(1 << 19) {
		t.Fatal("grown set broken")
	}
}

func TestArenaInts(t *testing.T) {
	var a Arena
	s := a.Ints(4)
	if len(s) != 0 || cap(s) != 4 {
		t.Fatalf("Ints: len=%d cap=%d, want 0/4", len(s), cap(s))
	}
	s = append(s, 1, 2, 3, 4)
	u := a.Ints(4)
	u = append(u, 9)
	if s[0] != 1 || s[3] != 4 {
		t.Fatalf("later carving overlapped earlier one: %v", s)
	}
	_ = u
}

// TestArenaSettlesAfterOneCycle replays one carving sequence that overflows
// a virgin arena several times: from the second Reset cycle on, the arena
// must serve the whole sequence from the chunks the first cycle left, with
// no allocation at all.
func TestArenaSettlesAfterOneCycle(t *testing.T) {
	var a Arena
	cycle := func() {
		a.Reset()
		for i := 1; i <= 6; i++ {
			s := a.Ints(10 * i * i)
			s = append(s, i)
			_ = a.Set(640 * i)
			slab := a.Slab(i, 100*i)
			slab[0].Add(i)
			_ = s
		}
	}
	for c := 2; c <= 4; c++ {
		if got := testing.AllocsPerRun(1, cycle); got != 0 {
			t.Fatalf("cycle %d allocated %v times, want 0", c, got)
		}
	}
}

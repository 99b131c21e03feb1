package alloc

import (
	"errors"
	"testing"

	"repro/internal/raerr"
)

type fakeAllocator struct{ name string }

func (f fakeAllocator) Name() string { return f.name }
func (f fakeAllocator) Allocate(p *Problem) *Result {
	return &Result{Allocated: make([]bool, p.N()), Allocator: f.name}
}

func TestRegistryRegisterAndResolve(t *testing.T) {
	if err := RegisterAllocator("unit-fake", false, func() Allocator { return fakeAllocator{"unit-fake"} }); err != nil {
		t.Fatal(err)
	}
	a, err := NewByName("unit-fake")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "unit-fake" {
		t.Errorf("resolved %q", a.Name())
	}
	// Case-insensitive lookup resolves the same entry.
	if a, err = NewByName("UNIT-FAKE"); err != nil || a.Name() != "unit-fake" {
		t.Errorf("case-folded lookup: %v, %v", a, err)
	}
	// Each resolution is a private instance (factories, not singletons).
	b1, _ := NewByName("unit-fake")
	b2, _ := NewByName("unit-fake")
	if &b1 == &b2 {
		t.Error("expected distinct instances")
	}
}

func TestRegistryErrors(t *testing.T) {
	if err := RegisterAllocator("", false, func() Allocator { return fakeAllocator{} }); !errors.Is(err, raerr.ErrInvalidConfig) {
		t.Errorf("empty name: %v", err)
	}
	if err := RegisterAllocator("unit-nil", false, nil); !errors.Is(err, raerr.ErrInvalidConfig) {
		t.Errorf("nil factory: %v", err)
	}
	if err := RegisterAllocator("unit-dup", false, func() Allocator { return fakeAllocator{} }); err != nil {
		t.Fatal(err)
	}
	if err := RegisterAllocator("Unit-Dup", true, func() Allocator { return fakeAllocator{} }); !errors.Is(err, raerr.ErrInvalidConfig) {
		t.Errorf("case-folded duplicate: %v", err)
	}
	if _, err := NewByName("unit-missing"); !errors.Is(err, raerr.ErrUnknownAllocator) {
		t.Errorf("unknown name: %v", err)
	}
}

func TestRegistryChordalOnly(t *testing.T) {
	if err := RegisterAllocator("unit-chordal", true, func() Allocator { return fakeAllocator{"unit-chordal"} }); err != nil {
		t.Fatal(err)
	}
	if !ChordalOnly("unit-chordal") || !ChordalOnly("UNIT-CHORDAL") {
		t.Error("chordal-only flag lost")
	}
	if ChordalOnly("unit-dup") || ChordalOnly("unit-missing") {
		t.Error("chordal-only reported for general/unknown allocators")
	}
}

func TestRegisteredNamesSorted(t *testing.T) {
	names := RegisteredNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not strictly sorted: %v", names)
		}
	}
}

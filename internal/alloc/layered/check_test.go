package layered

import (
	"errors"
	"testing"

	"repro/internal/raerr"
)

// TestCheckProblemNonChordal: the chordal-only layered allocators reject a
// non-chordal problem at the structural gate with a typed ErrNotSSA — the
// driver-visible contract that replaced the AllocateProblem panic for
// user-reachable paths.
func TestCheckProblemNonChordal(t *testing.T) {
	p := &Problem{R: 1, Weight: []float64{1, 1}, Chordal: false}
	for _, a := range []*Allocator{NL(), BL(), FPL(), BFPL()} {
		err := a.CheckProblem(p)
		if err == nil {
			t.Fatalf("%s: CheckProblem accepted a non-chordal problem", a.Name())
		}
		if !errors.Is(err, raerr.ErrNotSSA) {
			t.Fatalf("%s: error %v does not wrap raerr.ErrNotSSA", a.Name(), err)
		}
	}
}

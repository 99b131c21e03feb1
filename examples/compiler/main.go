// Compiler-backend scenario: sweep every allocator over one mid-sized SSA
// function at several register counts — the experiment a compiler writer
// runs when choosing a spilling heuristic. The table shows the paper's
// headline result in miniature: the layered allocators (especially BFPL)
// track the optimal spill cost closely while Chaitin–Briggs colouring (GC)
// pays a visible premium, and plain NL drifts once the register count
// exceeds the number of layers that cover the graph.
//
// Run with:
//
//	go run ./examples/compiler
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"text/tabwriter"

	"repro/regalloc"
	"repro/regalloc/workload"
)

func main() {
	if err := runExample(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func runExample(stdout io.Writer) error {
	// A deterministic SPEC-like function from the workload generator: ~30
	// long-lived temporaries across three loop nests.
	f := workload.GenSSA("hot_kernel", 2026, workload.Shape{
		Params:      4,
		Segments:    6,
		MaxDepth:    3,
		StraightLen: 6,
		LoopProb:    0.4,
		BranchProb:  0.3,
		Carried:     3,
		LongLived:   24,
	})

	allocators := []string{"GC", "NL", "FPL", "BL", "BFPL", "Optimal"}
	registers := []int{2, 4, 8, 16, 24}

	shape, err := regalloc.Inspect(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "function %s: %d values, %d interference edges, MaxLive %d\n\n",
		f.Name, shape.Vertices, shape.Edges, shape.MaxLive)

	w := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(w, "R\t")
	for _, name := range allocators {
		fmt.Fprintf(w, "%s\t", name)
	}
	fmt.Fprintln(w)
	for _, r := range registers {
		fmt.Fprintf(w, "%d\t", r)
		for _, name := range allocators {
			eng, err := regalloc.New(
				regalloc.WithRegisters(r), regalloc.WithAllocator(name),
				regalloc.WithoutRewrite())
			if err != nil {
				return err
			}
			out, err := eng.AllocateFunc(context.Background(), f)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%.0f\t", out.SpillCost)
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\n(table entries are total spill costs; lower is better)")
	return nil
}

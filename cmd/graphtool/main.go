// Command graphtool inspects the interference graph of a program: summary
// statistics (size, density, MaxLive, chordality), the maximal cliques /
// live sets, and an optional Graphviz DOT dump with spill costs as labels.
//
// Usage:
//
//	graphtool (-file f.ir | -suite eembc -prog aifir) [-dot] [-cliques]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/regalloc"
	"repro/regalloc/irx"
	"repro/regalloc/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "graphtool:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("graphtool", flag.ContinueOnError)
	file := fs.String("file", "", "textual IR file ('-' or empty = stdin)")
	suiteName := fs.String("suite", "", "take the program from this workload suite")
	progName := fs.String("prog", "", "program name within -suite")
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of statistics")
	cliques := fs.Bool("cliques", false, "list the pressure constraints (live sets)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	f, err := loadFunc(*file, *suiteName, *progName)
	if err != nil {
		return err
	}
	ins, err := regalloc.Inspect(f)
	if err != nil {
		return err
	}

	if *dot {
		return ins.WriteDOT(out)
	}

	fmt.Fprintf(out, "function  %s (ssa=%v)\n", f.Name, f.SSA)
	fmt.Fprintf(out, "blocks    %d\n", len(f.Blocks))
	fmt.Fprintf(out, "vertices  %d\n", ins.Vertices)
	fmt.Fprintf(out, "edges     %d\n", ins.Edges)
	fmt.Fprintf(out, "maxlive   %d\n", ins.MaxLive)
	fmt.Fprintf(out, "chordal   %v\n", ins.Chordal)
	if ins.Chordal {
		fmt.Fprintf(out, "cliques   %d (max size %d)\n", ins.CliqueCount, ins.CliqueNumber)
	} else {
		fmt.Fprintf(out, "live sets %d\n", len(ins.PressureSets))
	}
	if *cliques {
		fmt.Fprintln(out, "pressure constraints:")
		for _, ls := range ins.PressureSets {
			fmt.Fprintf(out, "  {%s}\n", strings.Join(ls, " "))
		}
	}
	return nil
}

func loadFunc(file, suiteName, progName string) (*irx.Func, error) {
	if suiteName != "" {
		s, ok := workload.SuiteByName(suiteName)
		if !ok {
			var names []string
			for _, s := range workload.AllSuites {
				names = append(names, s.Name)
			}
			return nil, fmt.Errorf("unknown suite %q (suites: %s)", suiteName, strings.Join(names, ", "))
		}
		for _, p := range s.Load() {
			if p.Name == progName {
				return p.F, nil
			}
		}
		return nil, fmt.Errorf("no program %q in suite %q", progName, suiteName)
	}
	var src []byte
	var err error
	if file == "" || file == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(file)
	}
	if err != nil {
		return nil, err
	}
	return irx.Parse(string(src))
}

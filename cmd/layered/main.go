// Command layered runs one register allocation end to end and reports the
// decisions: which values spill, the spill cost, and (for SSA inputs) the
// assigned registers and the rewritten function with spill code.
//
// Usage:
//
//	layered -r 8 [-alloc BFPL] [-arch st231] (-file f.ir | -suite eembc -prog aifir) [-print]
//
// The input is either a textual IR file (see regalloc/irx's format) or a
// named program from one of the built-in workload suites. With no -file and
// no -suite, it reads IR from standard input. `-alloc help` lists the
// registered allocator names.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/regalloc"
	"repro/regalloc/irx"
	"repro/regalloc/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "layered:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("layered", flag.ContinueOnError)
	regs := fs.Int("r", 0, "register count (default: the -arch register file)")
	allocName := fs.String("alloc", "", "allocator name, or 'help' to list (default BFPL/LH)")
	machine := fs.String("arch", "st231", "machine for the default register count (st231, armv7, jvm98)")
	file := fs.String("file", "", "textual IR file to allocate ('-' or empty = stdin)")
	suiteName := fs.String("suite", "", "take the program from this workload suite")
	progName := fs.String("prog", "", "program name within -suite")
	print := fs.Bool("print", false, "print the rewritten function (SSA inputs)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *allocName == "help" {
		fmt.Fprintln(out, strings.Join(regalloc.Allocators(), "\n"))
		return nil
	}

	f, err := loadFunc(*file, *suiteName, *progName)
	if err != nil {
		return err
	}

	r := *regs
	if r == 0 {
		m, err := regalloc.MachineByName(*machine)
		if err != nil {
			return err
		}
		r = m.Allocable()
	}

	opts := []regalloc.Option{regalloc.WithRegisters(r)}
	if *allocName != "" {
		opts = append(opts, regalloc.WithAllocator(*allocName))
	}
	eng, err := regalloc.New(opts...)
	if err != nil {
		return err
	}
	res, err := eng.AllocateFunc(context.Background(), f)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "function   %s\n", f.Name)
	fmt.Fprintf(out, "allocator  %s\n", res.Result.Allocator)
	fmt.Fprintf(out, "registers  %d\n", r)
	fmt.Fprintf(out, "values     %d\n", res.Problem.N())
	fmt.Fprintf(out, "maxlive    %d\n", res.MaxLive)
	fmt.Fprintf(out, "spilled    %d (cost %.1f of %.1f)\n",
		len(res.SpilledValues), res.SpillCost, res.Problem.TotalWeight())
	if len(res.SpilledValues) > 0 {
		names := make([]string, len(res.SpilledValues))
		for i, v := range res.SpilledValues {
			names[i] = f.NameOf(v)
		}
		sort.Strings(names)
		fmt.Fprintf(out, "spill set  %s\n", strings.Join(names, " "))
	}
	if res.RegisterOf != nil {
		var cells []string
		for val, reg := range res.RegisterOf {
			if reg >= 0 {
				cells = append(cells, fmt.Sprintf("%s=r%d", f.NameOf(val), reg))
			}
		}
		sort.Strings(cells)
		fmt.Fprintf(out, "assignment %s\n", strings.Join(cells, " "))
	}
	if *print && res.Rewritten != nil {
		fmt.Fprintln(out)
		fmt.Fprint(out, res.Rewritten.String())
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

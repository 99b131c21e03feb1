// Command experiments regenerates every figure of the paper's evaluation
// section (Figures 8–15) from the synthetic workload suites.
//
// Usage:
//
//	experiments [-fig N] [-v]                         # plain-text figure tables
//	experiments -json QUALITY.json -md QUALITY.md     # committed quality artifacts
//	experiments -against QUALITY.json                 # CI quality gate
//
// Without -fig, all figures are produced in order. Output is plain text:
// one table per figure, with the same rows/series the paper plots.
//
// The -json/-md/-against flags switch to the quality pipeline: the full
// figure sweep plus the coalescing-biased-assignment differential is
// distilled into a quality.Report. -json and -md write the committed
// artifacts ("-" = stdout); -against loads a committed QUALITY.json first
// and diffs the fresh run against it under the default tolerances, exiting
// non-zero on any out-of-tolerance drift — the CI quality gate.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/regalloc/quality"
	"repro/regalloc/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "figure to regenerate (8..15); 0 = all")
	jsonOut := fs.String("json", "", "write the quality report (QUALITY.json) to this path; - = stdout")
	mdOut := fs.String("md", "", "write the quality report's markdown tables to this path; - = stdout")
	against := fs.String("against", "", "diff the fresh quality report against this committed QUALITY.json (CI gate)")
	verbose := fs.Bool("v", false, "print per-program progress")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *fig != 0 && (*fig < 8 || *fig > 15) {
		return fmt.Errorf("-fig %d: want a figure in 8..15, or 0 for all", *fig)
	}

	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}

	if *jsonOut != "" || *mdOut != "" || *against != "" {
		return runQuality(*jsonOut, *mdOut, *against, out, progress)
	}

	want := func(n int) bool { return *fig == 0 || *fig == n }

	// The chordal figures come in pairs sharing a dataset: (8,11) SPEC2000,
	// (9,12) EEMBC, (10,13) lao-kernels. (14,15) share the JVM98 dataset.
	type figurePair struct {
		suite     workload.Suite
		meanFig   int
		distFig   int
		meanTitle string
		distTitle string
	}
	pairs := []figurePair{
		{workload.SuiteSPEC2000, 8, 11,
			"Figure 8: mean normalized allocation cost, SPEC CPU 2000int on ST231",
			"Figure 11: distribution of per-program normalized costs, SPEC CPU 2000int on ST231"},
		{workload.SuiteEEMBC, 9, 12,
			"Figure 9: mean normalized allocation cost, EEMBC on ST231",
			"Figure 12: distribution of per-program normalized costs, EEMBC on ST231"},
		{workload.SuiteLAOKernels, 10, 13,
			"Figure 10: mean normalized allocation cost, lao-kernels on ARMv7",
			"Figure 13: distribution of per-program normalized costs, lao-kernels on ARMv7"},
	}
	for _, pair := range pairs {
		if !want(pair.meanFig) && !want(pair.distFig) {
			continue
		}
		names := workload.AllocatorNames(workload.ChordalAllocators())
		if progress != nil {
			fmt.Fprintf(progress, "suite %s:\n", pair.suite.Name)
		}
		instances := workload.Run(pair.suite, progress)
		if want(pair.meanFig) {
			fmt.Fprintf(out, "%s\n", pair.meanTitle)
			fmt.Fprint(out, workload.FormatMeansTable(workload.NormalizedMeans(instances, names), names))
			fmt.Fprintln(out)
		}
		if want(pair.distFig) {
			ratios, skipped := workload.PerProgramRatios(instances, names)
			fmt.Fprintf(out, "%s\n", pair.distTitle)
			fmt.Fprint(out, workload.FormatDistTable(ratios, names))
			if skipped > 0 {
				fmt.Fprintf(out, "(skipped %d undefined ratios: optimal cost was zero)\n", skipped)
			}
			fmt.Fprintln(out)
		}
	}

	if want(14) || want(15) {
		names := workload.AllocatorNames(workload.JITAllocators())
		if progress != nil {
			fmt.Fprintf(progress, "suite %s:\n", workload.SuiteJVM98.Name)
		}
		instances := workload.Run(workload.SuiteJVM98, progress)
		if want(14) {
			fmt.Fprintln(out, "Figure 14: mean normalized allocation cost, SPEC JVM98 (non-chordal)")
			fmt.Fprint(out, workload.FormatMeansTable(workload.NormalizedMeans(instances, names), names))
			fmt.Fprintln(out)
		}
		if want(15) {
			fmt.Fprintln(out, "Figure 15: per-benchmark normalized allocation cost, SPEC JVM98, R=6")
			fmt.Fprint(out, workload.FormatPerBenchTable(workload.PerBenchmarkMeans(instances, names, 6), names))
			fmt.Fprintln(out)
		}
	}
	return nil
}

// runQuality runs the figure-grade quality pipeline and serves the
// -json/-md/-against flags. The committed report is loaded before the
// (expensive) generation so a bad -against path fails fast.
func runQuality(jsonOut, mdOut, against string, out io.Writer, progress io.Writer) error {
	var committed *quality.Report
	if against != "" {
		var err error
		if committed, err = quality.ReadFile(against); err != nil {
			return err
		}
	}
	rep, err := quality.Generate(quality.Options{Progress: progress})
	if err != nil {
		return err
	}
	if jsonOut != "" {
		buf, err := quality.Encode(rep)
		if err != nil {
			return err
		}
		if jsonOut == "-" {
			out.Write(buf)
		} else if err := os.WriteFile(jsonOut, buf, 0o644); err != nil {
			return err
		}
	}
	if mdOut != "" {
		md := quality.Markdown(rep)
		if mdOut == "-" {
			io.WriteString(out, md)
		} else if err := os.WriteFile(mdOut, []byte(md), 0o644); err != nil {
			return err
		}
	}
	if committed != nil {
		if err := quality.Compare(committed, rep, quality.Tolerances{}); err != nil {
			return fmt.Errorf("quality gate failed against %s:\n%w", against, err)
		}
		fmt.Fprintf(out, "quality gate: fresh run matches %s within tolerances\n", against)
	}
	return nil
}

// Package workload is the public face of the repository's evaluation
// workloads: the paper's synthetic benchmark suites (SPEC CPU 2000int,
// EEMBC, lao-kernels, SPEC JVM98), the deterministic SSA / non-SSA program
// generators behind them, the seeded random-module generator the batch
// pipeline and verification harness use, and the figure-regeneration
// harness of cmd/experiments. Everything is re-exported from the internal
// implementation as aliases, so workload values flow into regalloc and
// irx APIs directly.
package workload

import (
	"io"

	"repro/internal/bench"
	"repro/internal/irgen"
	"repro/regalloc"
	"repro/regalloc/irx"
)

// Program is one named function of a suite.
type Program = bench.Program

// Suite is one workload: named programs plus the register-count sweep the
// paper evaluates it over.
type Suite = bench.Suite

// Instance is one (program, R) cell of a harness run, with the spill cost
// of every allocator in the lineup.
type Instance = bench.Instance

// Shape parameterizes the deterministic SSA program generator.
type Shape = bench.Shape

// NonSSAShape parameterizes the deterministic non-SSA program generator.
type NonSSAShape = bench.NonSSAShape

// The paper's workload suites and register sweeps.
var (
	SuiteSPEC2000   = bench.SuiteSPEC2000
	SuiteEEMBC      = bench.SuiteEEMBC
	SuiteLAOKernels = bench.SuiteLAOKernels
	SuiteJVM98      = bench.SuiteJVM98
	AllSuites       = bench.AllSuites
	ChordalSweep    = bench.ChordalSweep
	JITSweep        = bench.JITSweep
)

// SuiteByName resolves a suite by name ("spec2000int", "eembc",
// "lao-kernels", "jvm98").
func SuiteByName(name string) (Suite, bool) { return bench.SuiteByName(name) }

// GenSSA deterministically generates a strict-SSA function.
func GenSSA(name string, seed int64, shape Shape) *irx.Func { return bench.GenSSA(name, seed, shape) }

// GenNonSSA deterministically generates a non-SSA (multiple-definition)
// function, the JIT-flavoured workload.
func GenNonSSA(name string, seed int64, shape NonSSAShape) *irx.Func {
	return bench.GenNonSSA(name, seed, shape)
}

// GenerateModule deterministically generates a mixed SSA/non-SSA module of
// n functions — the corpus generator of the batch pipeline, throughput
// benchmark and verification soaks.
func GenerateModule(seed int64, n int) *irx.Module { return irgen.GenerateModule(seed, n) }

// GenerateFunc deterministically generates the single function of seed —
// the generator behind the verifier's soak mode.
func GenerateFunc(seed int64) *irx.Func { return irgen.FromSeed(seed) }

// GenGiant deterministically generates a giant strict-SSA function with
// approximately the requested value and block counts, in O(values) time —
// the stress workload of the resource-governance (budget and degradation)
// tests and the allocation-time scaling benchmark.
func GenGiant(name string, seed int64, values, blocks int) *irx.Func {
	return bench.GenGiant(name, seed, values, blocks)
}

// GenDuplicated deterministically generates a module of n functions with a
// controlled duplication rate: each function after the first is, with
// probability dupRate, an alpha-renamed copy of an earlier one. This is
// the corpus shape of redundant JIT / compile-server traffic, and the
// workload behind the outcome-cache benchmark (regbench's service-dup).
func GenDuplicated(seed int64, n int, dupRate float64) *irx.Module {
	return irgen.GenDuplicated(seed, n, dupRate)
}

// ChordalAllocators is the paper's chordal lineup (GC, NL, FPL, BL, BFPL,
// Optimal).
func ChordalAllocators() []regalloc.Allocator { return bench.ChordalAllocators() }

// JITAllocators is the paper's non-chordal lineup (DLS, BLS, GC, LH,
// Optimal).
func JITAllocators() []regalloc.Allocator { return bench.JITAllocators() }

// AllocatorNames extracts the lineup names in order.
func AllocatorNames(as []regalloc.Allocator) []string { return bench.AllocatorNames(as) }

// Run sweeps every allocator of the suite's lineup over every program and
// register count, writing per-program progress to progress when non-nil.
func Run(s Suite, progress io.Writer) []*Instance { return bench.Run(s, progress) }

// NormalizedMeans computes, per register count, each allocator's mean
// allocation cost normalized to optimal (the paper's Figures 8–10/14).
func NormalizedMeans(instances []*Instance, allocators []string) map[int]map[string]float64 {
	return bench.NormalizedMeans(instances, allocators)
}

// PerProgramRatios collects the per-program normalized costs (the
// distribution figures 11–13); the int counts skipped undefined ratios.
func PerProgramRatios(instances []*Instance, allocators []string) (map[int]map[string][]float64, int) {
	return bench.PerProgramRatios(instances, allocators)
}

// PerBenchmarkMeans groups normalized costs by benchmark at one register
// count (Figure 15).
func PerBenchmarkMeans(instances []*Instance, allocators []string, r int) map[string]map[string]float64 {
	return bench.PerBenchmarkMeans(instances, allocators, r)
}

// FormatMeansTable renders a NormalizedMeans result as the paper's table.
func FormatMeansTable(means map[int]map[string]float64, allocators []string) string {
	return bench.FormatMeansTable(means, allocators)
}

// FormatDistTable renders a PerProgramRatios result as the paper's
// distribution table.
func FormatDistTable(ratios map[int]map[string][]float64, allocators []string) string {
	return bench.FormatDistTable(ratios, allocators)
}

// FormatPerBenchTable renders a PerBenchmarkMeans result.
func FormatPerBenchTable(per map[string]map[string]float64, allocators []string) string {
	return bench.FormatPerBenchTable(per, allocators)
}

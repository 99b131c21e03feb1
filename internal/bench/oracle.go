package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/irgen"
)

// OracleInputs returns the functions the live-set pipeline's differential
// tests run the current code and its kept oracle over, in a fixed order:
// every .ir file in corpusDir, irgen seeds 0–299 (SSA and non-SSA, some with
// unreachable blocks), ConstrainedFromSeed seeds 0–39 for every machine at 8
// registers, the non-SSA functions of a generated 60-function module, and 8
// giants of 1000–8000 values. Each input is named for failure messages.
func OracleInputs(corpusDir string) (names []string, funcs []*ir.Func, err error) {
	add := func(name string, f *ir.Func) {
		names = append(names, name)
		funcs = append(funcs, f)
	}
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.ir"))
	if err != nil {
		return nil, nil, err
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("bench: no .ir files in %s", corpusDir)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, nil, err
		}
		f, err := ir.Parse(string(src))
		if err != nil {
			return nil, nil, fmt.Errorf("bench: %s: %w", file, err)
		}
		add(filepath.Base(file), f)
	}
	for seed := int64(0); seed < 300; seed++ {
		add(fmt.Sprintf("irgen seed %d", seed), irgen.FromSeed(seed))
	}
	for _, name := range arch.Names() {
		m, err := arch.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		cons := m.Constraints(8)
		for seed := int64(0); seed < 40; seed++ {
			add(fmt.Sprintf("%s seed %d", name, seed), irgen.ConstrainedFromSeed(seed, cons))
		}
	}
	for _, f := range irgen.GenerateModule(7, 60).Funcs {
		if !f.SSA {
			add("module "+f.Name, f)
		}
	}
	for i := 1; i <= 8; i++ {
		v := 1000 * i
		add(fmt.Sprintf("giant %d", v), GenGiant(fmt.Sprintf("giant%d", v), int64(i), v, v/50))
	}
	return names, funcs, nil
}

package outcache_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/outcache"
)

// TestHitAndMissOutcomesHaveOneShape pins the decision-level Outcome: a
// run's Outcome and the one a cache entry materializes for the same
// function are deeply equal — same fields set, same values, no analysis
// structure on either side. Inputs: the IR corpus, irgen seeds, the non-SSA
// module functions and the giant functions of bench.OracleInputs, unbiased
// and with aggressive coalescing, plus constrained functions on every
// machine. One Runner produces every miss, so the check also covers
// Outcomes of a reused Runner.
func TestHitAndMissOutcomesHaveOneShape(t *testing.T) {
	names, funcs, err := bench.OracleInputs(filepath.Join("..", "ir", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	type input struct {
		name string
		f    *ir.Func
		cfg  core.Config
	}
	var inputs []input
	for i, f := range funcs {
		if f.Constrained() {
			continue // the machine runs below
		}
		inputs = append(inputs,
			input{names[i], f, core.Config{Registers: 4}},
			input{names[i] + " coalesced", f, core.Config{Registers: 8, Coalescing: coalesce.Aggressive}})
	}
	for _, name := range arch.Names() {
		m, err := arch.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cons := m.Constraints(8)
		for seed := int64(0); seed < 20; seed++ {
			inputs = append(inputs, input{name, irgen.ConstrainedFromSeed(seed, cons),
				core.Config{Registers: 8, Constraints: cons, Coalescing: coalesce.Conservative}})
		}
	}
	runner := core.NewRunner()
	for _, in := range inputs {
		miss, err := runner.Run(in.f, in.cfg)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		hit := outcache.NewEntry(miss).Materialize(in.f)
		if reflect.DeepEqual(miss, hit) {
			continue
		}
		mv, hv := reflect.ValueOf(miss).Elem(), reflect.ValueOf(hit).Elem()
		for i := 0; i < mv.NumField(); i++ {
			if !reflect.DeepEqual(mv.Field(i).Interface(), hv.Field(i).Interface()) {
				t.Errorf("%s: Outcome.%s differs between miss and hit:\nmiss %+v\nhit  %+v",
					in.name, mv.Type().Field(i).Name, mv.Field(i).Interface(), hv.Field(i).Interface())
			}
		}
		t.FailNow()
	}
}

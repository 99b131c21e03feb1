package ir

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParse feeds arbitrary text to the IR parser. The invariants: Parse
// never panics; it agrees with the reference parser (oracle_test.go) on
// the error text or on a deep-equal Func, and ParseModule agrees with the
// reference module parser likewise; and any input it accepts must
// round-trip — print, reparse, print again, with the two prints identical
// (print∘parse is a fixpoint on the image of Parse).
func FuzzParse(f *testing.F) {
	files, _ := filepath.Glob(filepath.Join("testdata", "*.ir"))
	for _, file := range files {
		if src, err := os.ReadFile(file); err == nil {
			f.Add(string(src))
		}
	}
	f.Add("func f ssa {\nb0:\n  ret\n}\n")
	f.Add("func f {\nb0:\n  x = const 1\n  condbr x, b0, b1\nb1:\n  s = reload x\n  ret s\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := oracleParse(src)
		fn, err := Parse(src)
		if errString(err) != errString(wantErr) || !reflect.DeepEqual(fn, want) {
			t.Fatalf("Parse differs from the oracle: error %q, oracle %q\ninput:\n%s", errString(err), errString(wantErr), src)
		}
		wantMod, wantErr := oracleParseModule(src)
		m, err := ParseModule(src)
		if errString(err) != errString(wantErr) || !reflect.DeepEqual(m, wantMod) {
			t.Fatalf("ParseModule differs from the oracle: error %q, oracle %q\ninput:\n%s", errString(err), errString(wantErr), src)
		}
		if fn == nil {
			return // rejected inputs only need to not panic
		}
		first := fn.String()
		g, err := Parse(first)
		if err != nil {
			t.Fatalf("printed form does not reparse: %v\ninput:\n%s\nprinted:\n%s", err, src, first)
		}
		if second := g.String(); second != first {
			t.Fatalf("print/parse not a fixpoint:\n%s\nvs\n%s", first, second)
		}
	})
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

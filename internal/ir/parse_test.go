package ir_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/irgen"
)

// parseInputs returns the differential corpus of the parser: the IR
// corpus, the FuzzParse seed corpus, 300 irgen seeds, 40 constrained
// functions per machine, the non-SSA module functions and the giants (all
// from bench.OracleInputs), plus two streams of the duplicated service
// traffic, each printed to text.
func parseInputs(t testing.TB) (names, srcs []string) {
	t.Helper()
	add := func(name, src string) {
		names = append(names, name)
		srcs = append(srcs, src)
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.ir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		add(filepath.Base(file), string(src))
	}
	for i, src := range edgeSources {
		add(fmt.Sprintf("edge %d", i), src)
	}
	fuzzFiles, _ := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", "*"))
	for _, file := range fuzzFiles {
		add("fuzz "+filepath.Base(file), fuzzCorpusString(t, file))
	}
	fnames, funcs, err := bench.OracleInputs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range funcs {
		add(fnames[i], f.String())
	}
	for _, seed := range []int64{1, 3} {
		for _, f := range irgen.GenDuplicated(seed, 62, 0.8).Funcs {
			add(fmt.Sprintf("dup %d %s", seed, f.Name), f.String())
		}
	}
	return names, srcs
}

// edgeSources are valid functions at the corners of the grammar: a phi
// without operands (its list must stay non-nil), a condbr with one target
// twice, argument-less calls and returns, slot-less reloads, every
// annotation form with duplicated clobbers, CRLF line ends, Unicode
// spaces, and text after the closing brace.
var edgeSources = []string{
	"func f ssa {\nb0:\n  x = phi\n  ret x\n}\n",
	"func f ssa {\nb0:\n  c = param 0\n  condbr c, b1, b1\nb1:\n  p = phi [b0: c], [b0: c]\n  ret p\n}\n",
	"func f {\nb0:\n  x = call\n  r = reload\n  s = reload x\n  ret\n}\n",
	"func f ssa {\nb0:\n  a = param 0 !pin=r0\n  b = param 1 !fp\n  g = param 2 !gpr\n  h = param 3 !pin=f2 !fp\n  c = call a, b !clobbers=r3,r1,r3,f0\n  ret c\n}\n",
	"func f ssa {\r\nb0:\r\n  x = param 0\r\n  ret x\r\n}\r\n",
	"func f\u00a0ssa {\nb0:\n  x = param 0 !fp\u2003!pin=f1\n  ret x\n}\n",
	"func f ssa {\nb0:\n  br b1\n}\nb1:\n  ret\n}\n",
}

// fuzzCorpusString decodes a one-string "go test fuzz v1" corpus file.
func fuzzCorpusString(t testing.TB, file string) string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(string(data), "\n")
	body = strings.TrimSpace(body)
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(body, "string("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return s
}

// mutants derives malformed and reshaped copies of src: truncations, a
// replaced byte, a deleted, a repeated and a swapped line, and a deleted
// and two swapped comma-separated items within a line (phi operands, call
// arguments, branch targets).
func mutants(src string, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for range 3 {
		out = append(out, src[:rng.Intn(len(src)+1)])
	}
	if len(src) > 0 {
		const alphabet = " \t,:;[]=!{}\nabx0-"
		b := []byte(src)
		b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
		out = append(out, string(b))
	}
	lines := strings.Split(src, "\n")
	edit := func(f func(l []string) []string) {
		l := append([]string(nil), lines...)
		out = append(out, strings.Join(f(l), "\n"))
	}
	i, j := rng.Intn(len(lines)), rng.Intn(len(lines))
	edit(func(l []string) []string { return append(l[:i], l[i+1:]...) })
	edit(func(l []string) []string { return append(l[:i+1], l[i:]...) })
	edit(func(l []string) []string { l[i], l[j] = l[j], l[i]; return l })
	for k := rng.Intn(len(lines)); k < len(lines); k++ {
		if items := strings.Split(lines[k], ","); len(items) > 1 {
			a, b := rng.Intn(len(items)), rng.Intn(len(items))
			edit(func(l []string) []string {
				l[k] = strings.Join(slices.Delete(slices.Clone(items), a, a+1), ",")
				return l
			})
			edit(func(l []string) []string {
				items[a], items[b] = items[b], items[a]
				l[k] = strings.Join(items, ",")
				return l
			})
			break
		}
	}
	return out
}

// checkParse requires Parse to agree with the reference parser on src: the
// same error text, or deep-equal functions — slice nil-ness and the value
// numbering (the ValueName map) included.
func checkParse(t *testing.T, name, src string) {
	t.Helper()
	want, wantErr := ir.OracleParse(src)
	got, err := ir.Parse(src)
	if errText(err) != errText(wantErr) {
		t.Fatalf("%s: error %q, oracle %q\nsource:\n%s", name, errText(err), errText(wantErr), src)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: parse differs from the oracle\nsource:\n%s\ngot:\n%v\nwant:\n%v", name, src, got, want)
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestParseMatchesOracle runs the differential over the corpus and every
// mutant of it.
func TestParseMatchesOracle(t *testing.T) {
	for i, src := range edgeSources {
		if _, err := ir.Parse(src); err != nil {
			t.Errorf("edge %d rejected: %v", i, err)
		}
	}
	names, srcs := parseInputs(t)
	accepted, rejected := 0, 0
	for i, src := range srcs {
		checkParse(t, names[i], src)
		for k, m := range mutants(src, int64(i)) {
			checkParse(t, fmt.Sprintf("%s mutant %d", names[i], k), m)
			if _, err := ir.Parse(m); err == nil {
				accepted++
			} else {
				rejected++
			}
		}
	}
	t.Logf("%d inputs; mutants: %d accepted, %d rejected", len(srcs), accepted, rejected)
	if accepted == 0 || rejected == 0 {
		t.Fatalf("mutants exercise one side only: %d accepted, %d rejected", accepted, rejected)
	}
}

// TestParseModuleMatchesOracle runs the module differential over the
// module corpus, a generated module and their mutants; a duplicated
// function name exercises the module-level check.
func TestParseModuleMatchesOracle(t *testing.T) {
	var names, srcs []string
	files, _ := filepath.Glob(filepath.Join("testdata", "modules", "*.ir"))
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		names, srcs = append(names, filepath.Base(file)), append(srcs, string(src))
	}
	gen := irgen.GenerateModule(7, 12).String()
	names, srcs = append(names, "generated"), append(srcs, gen)
	first, _, _ := strings.Cut(gen, "\n}\n")
	names, srcs = append(names, "duplicate name"), append(srcs, gen+"\n"+first+"\n}\n")
	for i, src := range srcs {
		for k, m := range append([]string{src}, mutants(src, int64(i))...) {
			want, wantErr := ir.OracleParseModule(m)
			got, err := ir.ParseModule(m)
			if errText(err) != errText(wantErr) {
				t.Fatalf("%s mutant %d: error %q, oracle %q", names[i], k, errText(err), errText(wantErr))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s mutant %d: module differs from the oracle", names[i], k)
			}
		}
	}
}

// TestParseResultOwnsItsMemory: a parsed function shares nothing with the
// pooled parser. Parsing other functions afterwards, sequentially and from
// concurrent goroutines, leaves it unchanged.
func TestParseResultOwnsItsMemory(t *testing.T) {
	_, srcs := parseInputs(t)
	a, err := ir.Parse(srcs[0])
	if err != nil {
		t.Fatal(err)
	}
	snapshot := a.Clone()
	for _, src := range srcs[1:] {
		_, _ = ir.Parse(src)
	}
	wants := make([]*ir.Func, len(srcs))
	for i, src := range srcs {
		wants[i], _ = ir.OracleParse(src)
	}
	done := make(chan struct{})
	for w := range 4 {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := w; i < len(srcs); i += 4 {
				if f, _ := ir.Parse(srcs[i]); !reflect.DeepEqual(f, wants[i]) {
					t.Errorf("concurrent parse of input %d differs from the oracle", i)
				}
			}
		}()
	}
	for range 4 {
		<-done
	}
	if !reflect.DeepEqual(a, snapshot) {
		t.Fatalf("later parses changed an earlier result:\n%v\nwant:\n%v", a, snapshot)
	}
}

// TestParseSteadyStateAllocs pins the allocations of a warmed Parse: it
// should allocate only the Func it returns, which is what Func.Clone
// allocates for the same function.
func TestParseSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	var funcs []*ir.Func
	files, _ := filepath.Glob(filepath.Join("testdata", "*.ir"))
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		funcs = append(funcs, ir.MustParse(string(src)))
	}
	funcs = append(funcs, irgen.GenDuplicated(1, 62, 0.8).Funcs...)
	var parse, clone float64
	worst := 0.0
	for _, f := range funcs {
		src := f.String()
		p := testing.AllocsPerRun(20, func() {
			if _, err := ir.Parse(src); err != nil {
				t.Fatal(err)
			}
		})
		c := testing.AllocsPerRun(20, func() { f.Clone() })
		parse, clone = parse+p, clone+c
		worst = max(worst, p-c)
	}
	n := float64(len(funcs))
	t.Logf("%d functions: %.2f allocs/parse, %.2f allocs/clone, worst excess %.0f", len(funcs), parse/n, clone/n, worst)
	// Measured: 7.41 allocs/parse against 7.69 allocs/clone, worst excess
	// 3. A parse makes the value-name map at its exact size but grows the
	// class and pre-color maps as annotations arrive, so an annotated
	// function can cost a few more than its clone.
	const meanCeiling, excessCeiling = 8, 3
	if parse/n > meanCeiling {
		t.Errorf("%.2f allocs per warmed parse, ceiling %d", parse/n, meanCeiling)
	}
	if worst > excessCeiling {
		t.Errorf("a warmed parse allocates %.0f more than its clone, ceiling %d", worst, excessCeiling)
	}
}

package ir

import (
	"reflect"
	"testing"
)

// TestParserReuseKeepsEarlierResult: parse A, then parse B on the same
// parser; A must be unchanged, since nothing in a result aliases the
// parser's reusable tables.
func TestParserReuseKeepsEarlierResult(t *testing.T) {
	const srcA = "func a ssa {\nb0:\n  x = param 0\n  c = unary x\n  condbr c, b1, b2\nb1:\n  y = arith x, x\n  br b3\nb2:\n  z = call x !clobbers=r1,r0\n  br b3\nb3:\n  m = phi [b2: z], [b1: y]\n  ret m\n}\n"
	const srcB = "func b {\nentry:\n  p = param 0\n  q = param 1\n  s = arith q, p\n  store s, p\n  br exit\nexit:\n  r = load s\n  ret r\n}\n"
	p := parsers.New().(*parser)
	a, err := p.parse(srcA)
	if err != nil {
		t.Fatal(err)
	}
	p.reset()
	want, err := oracleParse(srcA)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("first parse differs from the oracle")
	}
	if _, err := p.parse(srcB); err != nil {
		t.Fatal(err)
	}
	p.reset()
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("parsing B on the same parser changed A:\n%v\nwant:\n%v", a, want)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/regalloc/workload"
)

// checkDecode compares DecodeRequest with json.Unmarshal on one body: the
// same Request (partial fills of rejected bodies included) and the same
// error text, or no error on both sides. When the fast path takes the body,
// the body must also be canonical: a JSON object of exact field names with
// string, integer and boolean values, no \u escape and valid UTF-8. It
// reports whether the fast path took the body.
func checkDecode(t *testing.T, body []byte) bool {
	t.Helper()
	var want Request
	wantErr := json.Unmarshal(body, &want)
	got := Request{ID: "stale", IR: "stale", Registers: -1, Print: true}
	gotErr := DecodeRequest(body, &got)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("body %q: error %q, json.Unmarshal %q", body, errText(gotErr), errText(wantErr))
	}
	if got != want {
		t.Fatalf("body %q: decoded %+v, json.Unmarshal %+v", body, got, want)
	}
	var fast Request
	if !decodeCanonical(body, &fast) {
		return false
	}
	if wantErr != nil {
		t.Fatalf("body %q: fast path took a body json.Unmarshal rejects", body)
	}
	if why := notCanonical(body); why != "" {
		t.Fatalf("body %q: fast path took a body that is not canonical: %s", body, why)
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// requestKeys are the exact JSON names of Request's fields.
var requestKeys = map[string]bool{"id": true, "ir": true, "module": true, "registers": true,
	"allocator": true, "machine": true, "coalesce": true, "print": true, "stats": true}

// notCanonical says why a body json.Unmarshal accepts is outside the fast
// path's language, or returns "" when it is inside.
func notCanonical(body []byte) string {
	if !utf8.Valid(body) {
		return "invalid UTF-8"
	}
	for i := 0; i < len(body); i++ {
		if body[i] == '\\' {
			if i++; i < len(body) && body[i] == 'u' {
				return `a \u escape`
			}
		}
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if tok, _ := dec.Token(); tok != json.Delim('{') {
		return fmt.Sprintf("top-level %v", tok)
	}
	for dec.More() {
		key, _ := dec.Token()
		if !requestKeys[key.(string)] {
			return fmt.Sprintf("key %q", key)
		}
		switch v, _ := dec.Token(); v := v.(type) {
		case string, bool:
		case json.Number:
			if strings.ContainsAny(string(v), ".eE") {
				return "number " + string(v)
			}
		default:
			return fmt.Sprintf("value %v of %q", v, key)
		}
	}
	return ""
}

// regbenchBodies are request bodies of the service benchmark's shape: the
// functions of interleaved workload.GenDuplicated(·, 62, 0.8) streams as
// single-function requests.
func regbenchBodies(t testing.TB, streams, per int) [][]byte {
	var bodies [][]byte
	for k := 0; k < streams; k++ {
		m := workload.GenDuplicated(int64(k+1), per, 0.8)
		for _, f := range m.Funcs {
			b, err := json.Marshal(Request{ID: fmt.Sprintf("c%d.%s", k, f.Name), IR: f.String()})
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, b)
		}
	}
	return bodies
}

// testRequestBodies are the requests of the server tests and the lines of
// the allocbatch JSONL tests.
func testRequestBodies(t testing.TB) [][]byte {
	const pinnedFunc = "func g ssa {\nb0:\n  x = param 0 !pin=r0\n  y = unary x\n  z = call y !clobbers=r0,r1\n  w = arith y, z\n  ret w\n}"
	var bodies [][]byte
	for _, req := range []Request{
		{ID: "r1", IR: tinyFunc, Print: true},
		{ID: "m1", IR: pinnedFunc, Machine: "ST231"},
		{ID: "m2", IR: tinyFunc, Machine: "pdp11"},
		{ID: "m1", Module: tinyModule},
		{IR: tinyFunc, Module: tinyModule},
		{},
		{IR: "not ir"},
		{ID: "st", Stats: true},
		{IR: tinyFunc, Registers: 4096},
		{IR: tinyFunc, Registers: -3, Allocator: "NL", Coalesce: "conservative"},
		{IR: tinyFunc + strings.Repeat(" ", 200)},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	for _, line := range []string{
		`{"id":"a","ir":"func f ssa {\nb0:\n  x = param 0\n  y = arith x, x\n  ret y\n}","registers":2}`,
		`{"id":"b","ir":"not ir at all"}`,
		`{"id":"c","ir":"func g ssa {\nb0:\n  x = param 0\n  ret x\n}","allocator":"NL","print":true}`,
		`{"id":"1","ir":"func f1 ssa {\nb0:\n  x = param 0\n  y = arith x, x\n  ret y\n}","registers":3}`,
		`{"id":"4","stats":true}`,
	} {
		bodies = append(bodies, []byte(line))
	}
	return bodies
}

// mutants derives bodies around the edges of the fast path's language from
// one body: truncations, case-variant keys and keys folding to a field name
// only under Unicode case folding (ſ, the Kelvin sign, dotless ı), duplicate
// keys, \u escapes, invalid UTF-8, control characters, null, numbers that
// are not canonical integers, nested unknown fields, trailing data and
// extra whitespace.
func mutants(body []byte) [][]byte {
	var out [][]byte
	for _, n := range []int{0, 1, len(body) / 2, len(body) - 1} {
		if n >= 0 && n < len(body) {
			out = append(out, body[:n])
		}
	}
	out = append(out,
		append(bytes.Clone(body), "{}"...),
		append(bytes.Clone(body), 'x'),
		append(bytes.Clone(body), " \r\n\t"...),
		append([]byte("\t\n "), body...))
	for _, kv := range []string{
		`"ID":"upper"`, `"Ir":"x"`, `"Registers":5`, `"STATS":true`, `"PRINT":true`,
		`"ſtats":true`, `"regiſters":5`, `"coaleſce":"aggressive"`, "\"Kind\":1", `"ıd":"dotless"`, `"İd":"dotted"`,
		`"id":"dup"`, `"registers":7,"registers":2`, `"print":true,"print":false`,
		`"machine":"armv7"`, `"id":"é😀"`, `"id":"\ud800"`, `"id":"esc"`,
		"\"id\":\"\xff\xfe\"", "\"allocator\":\"N\xc3(\"", "\"id\":\"a\x01b\"",
		`"ir":null`, `"registers":null`, `"stats":null`,
		`"registers":1e2`, `"registers":1E2`, `"registers":1.0`, `"registers":-0`, `"registers":007`,
		`"registers":99999999999999999999`, `"registers":-9223372036854775808`,
		`"registers":9223372036854775807`, `"registers":123456789012345678`, `"registers":"4"`,
		`"print":True`, `"print":1`, `"stats":false`, `"stats":tru`,
		`"id":"a\\\"\/\b\f\n\r\t"`, `"id":"\x"`, `"id":""`,
		`"x":{"a":[1,{"b":null}],"c":"é"}`, `"x":[]`, `"unknown":"v"`,
		` "id" : "spaced" `,
	} {
		if i := bytes.IndexByte(body, '{'); i >= 0 {
			sep := ","
			if rest := bytes.TrimSpace(body[i+1:]); len(rest) > 0 && rest[0] == '}' {
				sep = ""
			}
			out = append(out, concat(body[:i+1], []byte(kv), []byte(sep), body[i+1:]))
		}
		if i := bytes.LastIndexByte(body, '}'); i > 0 {
			out = append(out, concat(body[:i], []byte(","+kv), body[i:]))
		}
	}
	return out
}

func concat(parts ...[]byte) []byte {
	return bytes.Join(parts, nil)
}

// TestDecodeRequestMatchesJSON checks DecodeRequest against json.Unmarshal
// over the FuzzServeRequest seeds, regbench-shaped bodies, the server and
// allocbatch test requests, and mutants of them at the edges of the fast
// path; the canonical bodies must all take the fast path.
func TestDecodeRequestMatchesJSON(t *testing.T) {
	canonical := append(regbenchBodies(t, 2, 40), testRequestBodies(t)...)
	for _, body := range canonical {
		if !checkDecode(t, body) {
			t.Errorf("canonical body %q took the slow path", body)
		}
	}
	bodies := serveRequestSeeds(t)
	bodies = append(bodies, []byte("null"), []byte("{}"), []byte("{ }"), []byte("[]"),
		[]byte(`"str"`), []byte("1"), []byte(`{"id":"a",}`), []byte(`{,}`), []byte(`{"id"}`))
	for _, body := range append(bodies, canonical[:4]...) {
		bodies = append(bodies, mutants(body)...)
	}
	fast := 0
	for _, body := range bodies {
		if checkDecode(t, body) {
			fast++
		}
	}
	t.Logf("%d canonical bodies, %d seeds and mutants (%d took the fast path)", len(canonical), len(bodies), fast)
}

// FuzzDecodeRequest runs the DecodeRequest/json.Unmarshal differential on
// arbitrary bodies, from the seeds of FuzzServeRequest, the test requests,
// regbench-shaped bodies and the mutants of three test requests.
func FuzzDecodeRequest(f *testing.F) {
	tests := testRequestBodies(f)
	seeds := append(serveRequestSeeds(f), tests...)
	seeds = append(seeds, regbenchBodies(f, 1, 8)...)
	for _, body := range tests[:3] {
		seeds = append(seeds, mutants(body)...)
	}
	for _, body := range seeds {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// TestEngineKeysKeepNoRequestBody decodes three canonical requests of an
// 8 MiB IR each, builds an engine from each one's allocator and machine,
// and checks that once the requests are dropped the engine table keeps
// none of their bodies alive: a short field must not share memory with a
// long one.
func TestEngineKeysKeepNoRequestBody(t *testing.T) {
	const irBytes = 8 << 20
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	engines := NewEngineCache(nil, 1)
	before := heap()
	for k := 1; k <= 3; k++ {
		body := []byte(fmt.Sprintf(`{"id":"big","allocator":"nl","machine":"armv7","registers":%d,"ir":"%s"}`,
			k+3, strings.Repeat("x", irBytes)))
		var req Request
		if !decodeCanonical(body, &req) {
			t.Fatal("the body took the slow path")
		}
		if _, err := engines.Get(req.Registers, req.Allocator, req.Machine, req.Coalesce); err != nil {
			t.Fatal(err)
		}
	}
	if grew := int64(heap()) - int64(before); grew > irBytes/2 {
		t.Errorf("the heap grew by %d bytes after three engines were built from %d-byte requests", grew, irBytes)
	}
	runtime.KeepAlive(engines)
}

// BenchmarkDecodeRequest compares DecodeRequest with json.Unmarshal on a
// regbench-shaped body, which takes the fast path, and on a 12k-value
// GenGiant body that leaves it only near its end — at a \u escape, or at
// an unknown key — so the fallback pays a whole wasted scan before
// json.Unmarshal.
func BenchmarkDecodeRequest(b *testing.B) {
	giant, err := json.Marshal(Request{ID: "g", IR: workload.GenGiant("g", 1, 12000, 200).String()})
	if err != nil {
		b.Fatal(err)
	}
	end := bytes.LastIndexByte(giant, '"') // the closing quote of the IR
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"canonical", regbenchBodies(b, 1, 8)[7]},
		{"giant", giant},
		{"giant-escape-at-end", concat(giant[:end], []byte(`\u0020`), giant[end:])},
		{"giant-unknown-key-at-end", concat(giant[:len(giant)-1], []byte(`,"x":1}`))},
	} {
		if _, err := json.Marshal(json.RawMessage(c.body)); err != nil {
			b.Fatalf("%s: %v", c.name, err)
		}
		b.Run(c.name+"/DecodeRequest", func(b *testing.B) {
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req Request
				if err := DecodeRequest(c.body, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/json.Unmarshal", func(b *testing.B) {
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req Request
				if err := json.Unmarshal(c.body, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

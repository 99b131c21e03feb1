package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/regalloc"
)

// plainResponse mirrors Response field for field, tag for tag, but has no
// MarshalJSON method, so encoding/json encodes it by reflection: the
// reference the response encoder must match byte for byte.
type plainResponse struct {
	ID            string          `json:"id,omitempty"`
	Func          string          `json:"func,omitempty"`
	Allocator     string          `json:"allocator,omitempty"`
	Registers     int             `json:"registers,omitempty"`
	Machine       string          `json:"machine,omitempty"`
	Values        int             `json:"values,omitempty"`
	MaxLive       int             `json:"maxlive,omitempty"`
	Spilled       []string        `json:"spilled,omitempty"`
	SpillCost     float64         `json:"spillCost"`
	Assignment    map[string]int  `json:"assignment,omitempty"`
	Rewritten     string          `json:"rewritten,omitempty"`
	Degraded      string          `json:"degraded,omitempty"`
	DegradedStage string          `json:"degradedStage,omitempty"`
	Coalesce      *CoalesceInfo   `json:"coalesce,omitempty"`
	Cached        bool            `json:"cached,omitempty"`
	Results       []plainResponse `json:"results,omitempty"`
	Stats         *ServiceStats   `json:"stats,omitempty"`
	Error         string          `json:"error,omitempty"`
}

func toPlain(r *Response) plainResponse {
	p := plainResponse{
		ID: r.ID, Func: r.Func, Allocator: r.Allocator, Registers: r.Registers,
		Machine: r.Machine, Values: r.Values, MaxLive: r.MaxLive, Spilled: r.Spilled,
		SpillCost: r.SpillCost, Assignment: r.Assignment, Rewritten: r.Rewritten,
		Degraded: r.Degraded, DegradedStage: r.DegradedStage, Coalesce: r.Coalesce,
		Cached: r.Cached, Stats: r.Stats, Error: r.Error,
	}
	if r.Results != nil {
		p.Results = make([]plainResponse, len(r.Results))
		for i := range r.Results {
			p.Results[i] = toPlain(&r.Results[i])
		}
	}
	return p
}

// checkEncoding requires appendResponse, and json.Encoder through
// Response.MarshalJSON, to write exactly what json.Encoder writes for the
// method-less mirror of r.
func checkEncoding(t testing.TB, r *Response) {
	t.Helper()
	var want bytes.Buffer
	_ = json.NewEncoder(&want).Encode(toPlain(r)) // writes nothing when it fails
	prefix := []byte("prefix:")
	got := appendResponse(append([]byte(nil), prefix...), r)
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want.Bytes()) {
		t.Fatalf("appendResponse wrote\n%q\nencoding/json writes\n%q", got[len(prefix):], want.Bytes())
	}
	var viaMethod bytes.Buffer
	_ = json.NewEncoder(&viaMethod).Encode(r)
	if !bytes.Equal(viaMethod.Bytes(), want.Bytes()) {
		t.Fatalf("json.Encoder via MarshalJSON wrote\n%q\nwant\n%q", viaMethod.Bytes(), want.Bytes())
	}
}

// checkWireBody requires a served body to be the reference encoding of the
// response it decodes to. Every response the HTTP tests read passes
// through it.
func checkWireBody(t testing.TB, body []byte) {
	t.Helper()
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("response is not JSON (%v): %s", err, body)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(toPlain(&resp)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("served body\n%q\nis not the reference encoding\n%q", body, want.Bytes())
	}
}

// servedResponses returns what Do answers to the requests the server and
// allocbatch tests send: the IR corpus and module corpus at several
// register counts and allocators, machine, coalescing, print and stats
// requests, cached module results, budgeted and degraded engines, and
// every in-band error.
func servedResponses(t testing.TB) []Response {
	t.Helper()
	var irs, modules []string
	files, _ := filepath.Glob(filepath.Join("..", "ir", "testdata", "*.ir"))
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		irs = append(irs, string(src))
	}
	files, _ = filepath.Glob(filepath.Join("..", "ir", "testdata", "modules", "*.ir"))
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		modules = append(modules, string(src))
	}
	if len(irs) == 0 || len(modules) == 0 {
		t.Fatal("no IR corpus")
	}
	irs = append(irs, tinyFunc, copyFunc, "not ir at all", "func f ssa {\nb0:\n  x = param 0\n  ret <x&y>\n}")
	modules = append(modules, tinyModule)
	var reqs []Request
	for i, src := range irs {
		reqs = append(reqs,
			Request{ID: fmt.Sprintf("ir%d", i), IR: src, Registers: 2, Print: true},
			Request{ID: fmt.Sprintf("ir%d<&>", i), IR: src, Allocator: "NL", Coalesce: "aggressive"},
			Request{IR: src, Machine: "ST231", Registers: 8},
			Request{IR: src, Machine: "armv7", Coalesce: "conservative", Print: true},
		)
	}
	for i, src := range modules {
		reqs = append(reqs,
			Request{ID: fmt.Sprintf("mod%d", i), Module: src, Registers: 3, Print: true},
			Request{Module: src, Machine: "jvm98", Coalesce: "briggs"},
		)
	}
	// The allocbatch JSONL tests' requests, and a module served until the
	// cache admits and answers it.
	for _, name := range []string{"alpha", "beta"} {
		reqs = append(reqs, Request{ID: name, IR: strings.ReplaceAll(tinyFunc, "func f", "func "+name), Registers: 3})
	}
	reqs = append(reqs,
		Request{ID: "a", IR: tinyFunc, Registers: 2},
		Request{ID: "b", IR: "not ir at all"},
		Request{ID: "c", IR: tinyFunc, Allocator: "NL", Print: true},
		Request{ID: "again", Module: tinyModule},
		Request{ID: "again", Module: tinyModule},
		Request{ID: "again", Module: tinyModule},
		Request{ID: "both", IR: tinyFunc, Module: tinyModule},
		Request{ID: "none"},
		Request{IR: tinyFunc, Allocator: "nope"},
		Request{IR: tinyFunc, Machine: "pdp11"},
		Request{IR: tinyFunc, Coalesce: "optimistic"},
		Request{ID: "stats", Stats: true},
	)
	var out []Response
	serve := func(engines *EngineCache) {
		for _, req := range reqs {
			out = append(out, Do(context.Background(), engines, req, nil, 4, "", "", "", nil))
		}
	}
	serve(NewEngineCache(regalloc.NewCache(64), 0))
	for _, degrade := range []bool{false, true} {
		engines := NewEngineCache(nil, 0)
		engines.SetBudget(regalloc.Budget{Steps: 1}, degrade)
		serve(engines)
	}
	out = append(out, Do(context.Background(), NewEngineCache(nil, 0), Request{ID: "dec"}, fmt.Errorf("unexpected <EOF> & more"), 4, "", "", "", nil))
	return out
}

// TestAppendResponseMatchesJSON is the encoder differential over every
// served response and over random responses built to hit the escaping,
// float-format and omitempty corners.
func TestAppendResponseMatchesJSON(t *testing.T) {
	served := servedResponses(t)
	kinds := map[string]int{}
	for i := range served {
		r := &served[i]
		checkEncoding(t, r)
		switch {
		case r.Stats != nil:
			kinds["stats"]++
		case r.Results != nil:
			kinds["module"]++
			if r.Results[0].Cached {
				kinds["cached"]++
			}
		case r.Degraded != "":
			kinds["degraded"]++
		case r.Coalesce != nil:
			kinds["coalesce"]++
		case r.Error != "":
			kinds["error"]++
		default:
			kinds["plain"]++
		}
	}
	t.Logf("%d served responses: %v", len(served), kinds)
	for _, k := range []string{"stats", "module", "cached", "degraded", "coalesce", "error", "plain"} {
		if kinds[k] == 0 {
			t.Errorf("no %s response among the served ones", k)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		r := randomResponse(rng, 2)
		checkEncoding(t, &r)
	}
}

// awkward holds strings that exercise every escaping rule of encoding/json.
var awkward = []string{
	"", "plain", "<script>&amp;</script>", "quote\" back\\slash", "\b\f\n\r\t\x00\x1f\x7f",
	"\xff\xfe invalid", "line\u2028sep\u2029para", "\u00e9 \u00fc \u4e2d\u6587 \U0001f642", "\xe2\x80", "\u2027\u202a",
}

// awkwardFloats holds floats around encoding/json's format boundaries.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.999999e-7, 1e-7, 5e-324, 1e20, 1e21,
	-1e21, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.5e-9, 2.5e+300,
}

func pick[T any](rng *rand.Rand, s []T) T { return s[rng.Intn(len(s))] }

// randomResponse builds a response with every field drawn from the awkward
// values, nested results down to depth.
func randomResponse(rng *rand.Rand, depth int) Response {
	s := func() string { return pick(rng, awkward) }
	f := func() float64 {
		if rng.Intn(4) == 0 {
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
		}
		return pick(rng, awkwardFloats)
	}
	n := func() int { return pick(rng, []int{0, 0, 1, -3, 17, math.MaxInt64, math.MinInt64}) }
	r := Response{
		ID: s(), Func: s(), Allocator: s(), Registers: n(), Machine: s(), Values: n(),
		MaxLive: n(), SpillCost: f(), Rewritten: s(), Degraded: s(), DegradedStage: s(),
		Cached: rng.Intn(2) == 0, Error: s(),
	}
	switch rng.Intn(3) {
	case 0:
		r.Spilled = []string{}
	case 1:
		for range rng.Intn(4) + 1 {
			r.Spilled = append(r.Spilled, s())
		}
	}
	switch rng.Intn(3) {
	case 0:
		r.Assignment = map[string]int{}
	case 1:
		r.Assignment = map[string]int{}
		for range rng.Intn(6) + 1 {
			r.Assignment[s()+s()] = n()
		}
	}
	if rng.Intn(2) == 0 {
		r.Coalesce = &CoalesceInfo{Policy: s(), Moves: n(), MoveCost: f(), EliminatedCost: f(),
			ResidualCost: f(), Classes: n(), Merged: n()}
	}
	if rng.Intn(3) == 0 {
		r.Stats = &ServiceStats{Engines: n(), EngineCapacity: n(), CacheHits: rng.Uint64(),
			CacheMisses: uint64(rng.Intn(3)), CacheEntries: n(), CacheEvicted: rng.Uint64(),
			CacheBytes: int64(n()), CacheCapacity: n()}
	}
	if depth > 0 {
		switch rng.Intn(3) {
		case 0:
			r.Results = []Response{}
		case 1:
			for range rng.Intn(3) + 1 {
				r.Results = append(r.Results, randomResponse(rng, depth-1))
			}
		}
	}
	return r
}

// FuzzResponseEncoding drives the encoder differential with fuzzed
// strings, floats and shapes, NaN and the infinities included: where
// encoding/json refuses a value, appendResponse must write nothing.
func FuzzResponseEncoding(f *testing.F) {
	f.Add(int64(1), "<&>", 1.5, "\xff")
	f.Add(int64(2), " ", 1e21, "")
	f.Add(int64(3), "", math.NaN(), "x")
	f.Add(int64(4), "a\"b", math.Inf(-1), "\x00")
	f.Fuzz(func(t *testing.T, seed int64, s string, x float64, e string) {
		rng := rand.New(rand.NewSource(seed))
		r := randomResponse(rng, 1)
		r.ID, r.Error = s, e
		r.Spilled = append(r.Spilled, s, e)
		r.SpillCost = x
		if r.Coalesce != nil {
			r.Coalesce.ResidualCost = x
		}
		r.Assignment = map[string]int{s: 1, e: int(seed)}
		r.Results = append(r.Results, Response{Func: e, SpillCost: x / 3})
		checkEncoding(t, &r)
	})
}

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// headerCounter counts the status lines a handler writes.
type headerCounter struct {
	http.ResponseWriter
	headers int
}

func (w *headerCounter) WriteHeader(code int) {
	w.headers++
	w.ResponseWriter.WriteHeader(code)
}

// FuzzServeRequest feeds raw bytes as the body of POST /v1/allocate. Every
// input must get exactly one response: one status line, with a status the
// service documents (200, 400, 413, 429, 504), counted once by the request
// metric under that status, and a body holding exactly one Response in the
// reference encoding — with a non-empty error on every non-200 answer.
func FuzzServeRequest(f *testing.F) {
	for _, body := range serveRequestSeeds(f) {
		f.Add(body)
	}

	s, err := New(Config{Registers: 4, CacheSize: 64, MaxBodyBytes: fuzzMaxBody, RequestTimeout: 10 * time.Second})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	served := func() (n uint64, byCode map[int]uint64) {
		byCode = map[int]uint64{}
		for code, c := range s.metrics.requests {
			byCode[code] = c.Value()
			n += c.Value()
		}
		return n, byCode
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		before, byCodeBefore := served()
		rec := httptest.NewRecorder()
		w := &headerCounter{ResponseWriter: rec}
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/allocate", bytes.NewReader(body)))
		if w.headers != 1 {
			t.Fatalf("%d status lines written", w.headers)
		}
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusGatewayTimeout:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		after, byCode := served()
		if after != before+1 || byCode[rec.Code] != byCodeBefore[rec.Code]+1 {
			t.Fatalf("request metric moved by %d, by %d under status %d", after-before,
				byCode[rec.Code]-byCodeBefore[rec.Code], rec.Code)
		}
		dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
		var resp Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("status %d: body is not a Response (%v): %q", rec.Code, err, rec.Body)
		}
		if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
			t.Fatalf("body holds more than one value: %q", rec.Body)
		}
		checkWireBody(t, rec.Body.Bytes())
		if rec.Code != http.StatusOK && resp.Error == "" {
			t.Fatalf("status %d without an error: %q", rec.Code, rec.Body)
		}
	})
}

// serveRequestSeeds is the seed corpus of FuzzServeRequest: every IR test
// file as a function request and as a module request, the other request
// kinds, and malformed bodies.
func serveRequestSeeds(tb testing.TB) [][]byte {
	wrap := func(req Request) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	var seeds [][]byte
	files, _ := filepath.Glob(filepath.Join("..", "ir", "testdata", "*.ir"))
	modules, _ := filepath.Glob(filepath.Join("..", "ir", "testdata", "modules", "*.ir"))
	for _, file := range append(files, modules...) {
		src, err := os.ReadFile(file)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds,
			wrap(Request{ID: filepath.Base(file), IR: string(src), Print: true}),
			wrap(Request{Module: string(src), Machine: "armv7", Registers: 6}))
	}
	return append(seeds,
		wrap(Request{ID: "m", Module: tinyModule, Coalesce: "aggressive"}),
		wrap(Request{ID: "st", Stats: true}),
		wrap(Request{IR: tinyFunc, Registers: 1 << 40}),
		wrap(Request{IR: tinyFunc, Module: tinyModule}),
		[]byte(`{"id": "x", "ir": 7}`),
		[]byte("{not json"),
		[]byte(""),
		[]byte(`{"ir":"func f ssa {\nb0:\n  ret\n}"}{"stats":true}`),
		wrap(Request{IR: tinyFunc + strings.Repeat(" ", fuzzMaxBody)}))
}

// fuzzMaxBody is the body limit of FuzzServeRequest's server: small, so
// oversized inputs are cheap to make and reject.
const fuzzMaxBody = 8 << 10

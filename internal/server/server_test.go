package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

const tinyFunc = "func f ssa {\nb0:\n  x = param 0\n  y = arith x, x\n  ret y\n}"

const tinyModule = `func a ssa {
b0:
  x = param 0
  ret x
}

func b ssa {
b0:
  x = param 0
  y = arith x, x
  ret y
}
`

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Registers == 0 {
		cfg.Registers = 4
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, h http.Handler, req Request) (*httptest.ResponseRecorder, Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, h, body)
}

func postRaw(t *testing.T, h http.Handler, body []byte) (*httptest.ResponseRecorder, Response) {
	t.Helper()
	r := httptest.NewRequest("POST", "/v1/allocate", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	checkWireBody(t, w.Body.Bytes())
	var resp Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response is not JSON (%v): %s", err, w.Body.String())
	}
	return w, resp
}

func TestAllocateSingleFunction(t *testing.T) {
	s := newTestServer(t, Config{Registers: 2})
	w, resp := postJSON(t, s.Handler(), Request{ID: "r1", IR: tinyFunc, Print: true})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if resp.ID != "r1" || resp.Func != "f" || resp.Error != "" {
		t.Fatalf("unexpected response: %+v", resp)
	}
	if resp.Registers != 2 || resp.Values == 0 || resp.Rewritten == "" {
		t.Errorf("outcome fields missing: %+v", resp)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
}

// TestAllocateWithMachine covers the machine-constrained request surface:
// a per-request machine turns on constrained allocation (the response echoes
// the canonical machine name), an unknown machine is an in-band error, and a
// constrained function (pins + clobbers) allocates under the machine whose
// ABI it was annotated for.
func TestAllocateWithMachine(t *testing.T) {
	s := newTestServer(t, Config{Registers: 4})
	const pinnedFunc = "func g ssa {\nb0:\n  x = param 0 !pin=r0\n  y = unary x\n  z = call y !clobbers=r0,r1\n  w = arith y, z\n  ret w\n}"
	_, resp := postJSON(t, s.Handler(), Request{ID: "m1", IR: pinnedFunc, Machine: "ST231"})
	if resp.Error != "" {
		t.Fatalf("constrained request failed: %+v", resp)
	}
	if resp.Machine != "st231" {
		t.Errorf("machine echo = %q, want st231 (canonicalized)", resp.Machine)
	}
	_, resp = postJSON(t, s.Handler(), Request{ID: "m2", IR: tinyFunc, Machine: "pdp11"})
	if resp.Error == "" {
		t.Fatal("unknown machine accepted")
	}
	// A server-wide default machine applies to requests that omit one.
	s = newTestServer(t, Config{Registers: 4, Machine: "armv7"})
	_, resp = postJSON(t, s.Handler(), Request{ID: "m3", IR: tinyFunc})
	if resp.Error != "" || resp.Machine != "armv7" {
		t.Fatalf("default machine not applied: %+v", resp)
	}
	// An invalid default machine is a startup error, not a request error.
	if _, err := New(Config{Registers: 4, Machine: "pdp11"}); err == nil {
		t.Fatal("server with unknown default machine started")
	}
}

func TestAllocateModuleBody(t *testing.T) {
	s := newTestServer(t, Config{Registers: 4})
	w, resp := postJSON(t, s.Handler(), Request{ID: "m1", Module: tinyModule})
	if w.Code != http.StatusOK || resp.Error != "" {
		t.Fatalf("status %d, response %+v", w.Code, resp)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("%d results, want 2: %+v", len(resp.Results), resp)
	}
	if resp.Results[0].Func != "a" || resp.Results[1].Func != "b" {
		t.Errorf("module order not preserved: %+v", resp.Results)
	}
	for _, sub := range resp.Results {
		if sub.Error != "" || sub.Allocator == "" {
			t.Errorf("per-function entry incomplete: %+v", sub)
		}
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	w, resp := postRaw(t, h, []byte("{not json"))
	if w.Code != http.StatusBadRequest || resp.Error == "" {
		t.Errorf("malformed JSON: status %d, %+v", w.Code, resp)
	}
	w, resp = postJSON(t, h, Request{IR: tinyFunc, Module: tinyModule})
	if w.Code != http.StatusBadRequest || !strings.Contains(resp.Error, "mutually exclusive") {
		t.Errorf("ir+module: status %d, %+v", w.Code, resp)
	}
	w, resp = postJSON(t, h, Request{})
	if w.Code != http.StatusBadRequest || !strings.Contains(resp.Error, "required") {
		t.Errorf("empty request: status %d, %+v", w.Code, resp)
	}
	// Unparseable IR is the requester's fault but not a malformed request:
	// it answers 200 with an in-band error, like the JSONL contract.
	w, resp = postJSON(t, h, Request{IR: "not ir"})
	if w.Code != http.StatusOK || resp.Error == "" {
		t.Errorf("bad IR: status %d, %+v", w.Code, resp)
	}

	r := httptest.NewRequest("GET", "/v1/allocate", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/allocate = %d, want 405", rec.Code)
	}
}

func TestBodyTooLarge(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 64})
	big, err := json.Marshal(Request{IR: tinyFunc + strings.Repeat(" ", 200)})
	if err != nil {
		t.Fatal(err)
	}
	w, resp := postRaw(t, s.Handler(), big)
	if w.Code != http.StatusRequestEntityTooLarge || resp.Error == "" {
		t.Errorf("oversized body: status %d, %+v", w.Code, resp)
	}
}

func TestRequestTimeout(t *testing.T) {
	s := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	w, resp := postJSON(t, s.Handler(), Request{IR: tinyFunc})
	if w.Code != http.StatusGatewayTimeout || resp.Error == "" {
		t.Errorf("expired deadline: status %d, %+v", w.Code, resp)
	}
}

func TestStatsRequest(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: 64})
	h := s.Handler()
	postJSON(t, h, Request{IR: tinyFunc})
	w, resp := postJSON(t, h, Request{ID: "st", Stats: true})
	if w.Code != http.StatusOK || resp.Stats == nil {
		t.Fatalf("stats request: status %d, %+v", w.Code, resp)
	}
	if resp.Stats.Engines != 1 || resp.Stats.CacheCapacity != 64 {
		t.Errorf("stats payload: %+v", resp.Stats)
	}
}

// TestMetricsScrape: the exposition carries every advertised family with
// the counts the served traffic implies.
func TestMetricsScrape(t *testing.T) {
	s := newTestServer(t, Config{Registers: 3, CacheSize: 64, MaxInFlight: 7})
	h := s.Handler()
	// Three successes (2Q admission: ghost, admit, hit) and one bad request.
	postJSON(t, h, Request{IR: tinyFunc})
	postJSON(t, h, Request{IR: tinyFunc})
	postJSON(t, h, Request{IR: tinyFunc})
	postRaw(t, h, []byte("{"))

	r := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("exposition Content-Type = %q", ct)
	}
	text := w.Body.String()
	for _, want := range []string{
		`allocserve_requests_total{code="200"} 3`,
		`allocserve_requests_total{code="400"} 1`,
		`allocserve_funcs_total{result="ok"} 3`,
		`allocserve_in_flight 0`,
		`allocserve_max_in_flight 7`,
		`allocserve_stage_seconds_bucket{stage="allocate",le="+Inf"} 3`,
		`allocserve_stage_seconds_quantile{stage="allocate",q="0.5"}`,
		`allocserve_stage_seconds_quantile{stage="parse",q="0.99"}`,
		`allocserve_spill_ratio_count 3`,
		`allocserve_engines 1`,
		`allocserve_cache_hits_total 1`,
		`allocserve_cache_misses_total 2`,
		`allocserve_cache_capacity 64`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestOverAdmission: with the single admission slot occupied, the next
// request is rejected immediately with 429 + Retry-After, and served again
// once the slot frees.
func TestOverAdmission(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1})
	h := s.Handler()

	s.inflight <- struct{}{} // occupy the only slot
	w, resp := postJSON(t, h, Request{IR: tinyFunc})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over capacity: status %d, %+v", w.Code, resp)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	<-s.inflight // free the slot

	w, resp = postJSON(t, h, Request{IR: tinyFunc})
	if w.Code != http.StatusOK || resp.Error != "" {
		t.Fatalf("after release: status %d, %+v", w.Code, resp)
	}
	if !strings.Contains(s.MetricsText(), `allocserve_requests_total{code="429"} 1`) {
		t.Error("429 not counted in the request metrics")
	}
}

// TestDrainCompletesInFlight: requests parked inside the handler when
// Drain starts must still complete with 200, the drain must return nil,
// and the listener goroutine must exit cleanly.
func TestDrainCompletesInFlight(t *testing.T) {
	const parked = 3
	s := newTestServer(t, Config{MaxInFlight: 8, DrainTimeout: 10 * time.Second})

	entered := make(chan struct{}, parked)
	release := make(chan struct{})
	testHookServing = func() {
		entered <- struct{}{}
		<-release
	}
	defer func() { testHookServing = nil }()

	addr, done, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr.String() + "/v1/allocate"
	body, err := json.Marshal(Request{IR: tinyFunc})
	if err != nil {
		t.Fatal(err)
	}

	codes := make([]int, parked)
	errs := make([]error, parked)
	var wg sync.WaitGroup
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	for i := 0; i < parked; i++ {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatal("requests did not reach the handler")
		}
	}

	if s.Draining() {
		t.Fatal("Draining() true before Drain")
	}
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitUntil(t, s.Draining, "server never entered the draining state")
	// The drain is now waiting on the parked requests; let them finish.
	close(release)

	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	for i := 0; i < parked; i++ {
		if errs[i] != nil {
			t.Errorf("in-flight request %d failed during drain: %v", i, errs[i])
		} else if codes[i] != http.StatusOK {
			t.Errorf("in-flight request %d answered %d during drain, want 200", i, codes[i])
		}
	}
	if err := <-done; err != nil {
		t.Errorf("serve loop exited with %v", err)
	}

	// A drained server stops reporting ready, but stays alive: readiness
	// (/readyz) flips to 503 so load balancers stop routing, while liveness
	// (/healthz) stays 200 so an orchestrator does not kill the process
	// mid-drain.
	r := httptest.NewRequest("GET", "/readyz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", w.Code)
	}
	r = httptest.NewRequest("GET", "/healthz", nil)
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200 (liveness)", w.Code)
	}
}

func TestHealthzServing(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		r := httptest.NewRequest("GET", path, nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, w.Code)
		}
	}
}

// TestReadyzSaturated: a server whose in-flight slots are all taken is alive
// but not ready — /readyz answers 503 "saturated" while /healthz stays 200.
func TestReadyzSaturated(t *testing.T) {
	const slots = 2
	s := newTestServer(t, Config{MaxInFlight: slots})

	entered := make(chan struct{}, slots)
	release := make(chan struct{})
	testHookServing = func() {
		entered <- struct{}{}
		<-release
	}
	defer func() { testHookServing = nil }()

	body, err := json.Marshal(Request{IR: tinyFunc})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := httptest.NewRequest("POST", "/v1/allocate", bytes.NewReader(body))
			s.Handler().ServeHTTP(httptest.NewRecorder(), r)
		}()
	}
	for i := 0; i < slots; i++ {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatal("requests did not reach the handler")
		}
	}

	r := httptest.NewRequest("GET", "/readyz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while saturated = %d, want 503", w.Code)
	}
	r = httptest.NewRequest("GET", "/healthz", nil)
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Errorf("healthz while saturated = %d, want 200", w.Code)
	}

	close(release)
	wg.Wait()

	r = httptest.NewRequest("GET", "/readyz", nil)
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Errorf("readyz after release = %d, want 200", w.Code)
	}
}

// TestH2CUpgrade: the server speaks cleartext HTTP/2 with prior knowledge —
// the protocol the config advertises.
func TestH2CUpgrade(t *testing.T) {
	s := newTestServer(t, Config{})
	addr, done, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.Drain(context.Background())
		<-done
	}()

	client := &http.Client{Transport: h2cTransport(), Timeout: 10 * time.Second}
	body, _ := json.Marshal(Request{IR: tinyFunc})
	resp, err := client.Post("http://"+addr.String()+"/v1/allocate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ProtoMajor != 2 {
		t.Errorf("negotiated %s, want HTTP/2", resp.Proto)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("h2c request answered %d", resp.StatusCode)
	}
}

func TestNewRejectsBadDefaults(t *testing.T) {
	if _, err := New(Config{Registers: 4, Allocator: "bogus"}); err == nil {
		t.Error("unknown default allocator accepted")
	}
	if _, err := New(Config{Registers: -1}); err == nil {
		t.Error("negative register count accepted")
	}
}

func waitUntil(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// h2cTransport builds a prior-knowledge cleartext HTTP/2 client transport
// from the stdlib server-side support: it dials plain TCP and forces the
// HTTP/2 preface.
func h2cTransport() http.RoundTripper {
	tr := &http.Transport{ForceAttemptHTTP2: true}
	p := new(http.Protocols)
	p.SetUnencryptedHTTP2(true)
	p.SetHTTP1(false)
	tr.Protocols = p
	return tr
}

// TestRegisterCountBounded: a request for more registers than any target
// has is answered with a typed configuration error instead of sizing
// allocation tables by it, and such a default is a startup error.
func TestRegisterCountBounded(t *testing.T) {
	const maxRegisters = 1 << 12 // the library's bound, checked by regalloc.New
	s := newTestServer(t, Config{})
	for _, regs := range []int{maxRegisters + 1, 1 << 40} {
		w, resp := postJSON(t, s.Handler(), Request{IR: tinyFunc, Registers: regs})
		if w.Code != http.StatusOK || !strings.Contains(resp.Error, "service limit") {
			t.Errorf("%d registers: status %d, %+v", regs, w.Code, resp)
		}
	}
	if _, resp := postJSON(t, s.Handler(), Request{IR: tinyFunc, Registers: maxRegisters}); resp.Error != "" {
		t.Errorf("%d registers refused: %s", maxRegisters, resp.Error)
	}
	if _, err := New(Config{Registers: maxRegisters + 1}); err == nil {
		t.Error("server with an unbounded default register count started")
	}
}

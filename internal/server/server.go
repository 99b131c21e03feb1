// Package server is the long-lived allocation service: the paper's
// decoupled spill-then-assign pipeline behind a plain HTTP/1.1 + h2c
// (cleartext HTTP/2) interface, stdlib-only.
//
// Endpoints:
//
//	POST /v1/allocate — one JSON Request (single function or module body,
//	                    the same schema as the allocbatch JSONL service);
//	                    answers one JSON Response.
//	GET  /metrics     — Prometheus text exposition: request/function
//	                    counters, per-stage latency histograms with
//	                    p50/p99 estimates, spill-quality histogram,
//	                    outcome-cache hit/miss/eviction counters and an
//	                    in-flight gauge.
//	GET  /healthz     — liveness: 200 as long as the process serves HTTP
//	                    (stays 200 while draining — a draining process is
//	                    alive and must not be killed mid-drain).
//	GET  /readyz      — readiness: 200 while accepting new work, 503 once
//	                    draining or while admission is saturated (every
//	                    in-flight slot taken); load balancers route on it.
//
// Robustness is first-class: admission is bounded (Config.MaxInFlight;
// excess requests are rejected immediately with 429 + Retry-After rather
// than queued without bound), every request runs under a server-side
// deadline (Config.RequestTimeout, plumbed as a context through the
// engine into pipeline.RunModule), per-function resource budgets with
// graceful degradation are available (Config.Budget, Config.Degrade), and
// Drain performs a graceful shutdown — stop accepting, finish the
// in-flight requests, bounded by Config.DrainTimeout.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/regalloc"
)

// Config parameterizes the allocation server.
type Config struct {
	// Registers is the default register count for requests that omit one
	// (required, ≥ 1).
	Registers int
	// Allocator is the default allocator registry name ("" = the engine
	// default: BFPL for strict-SSA functions, LH otherwise).
	Allocator string
	// Machine is the default target-machine name for requests that omit
	// one ("" = unconstrained allocation). A non-empty name turns on
	// machine-constrained allocation — register classes, pre-colored ABI
	// values, call clobbers — instantiated at the request's register count.
	Machine string
	// Coalesce is the default coalescing policy name for requests that omit
	// one ("" or "off" = no bias; "aggressive"; "conservative"/"briggs").
	// A non-off policy biases register assignment toward eliminating move/φ
	// copies at identical spill cost; responses carry the move report and
	// /metrics exposes cumulative move-elimination counters.
	Coalesce string
	// Jobs is the worker count for module-request allocation
	// (0 = GOMAXPROCS).
	Jobs int
	// CacheSize, when > 0, attaches a shared content-addressed outcome
	// cache of that many entries to every engine.
	CacheSize int
	// MaxInFlight bounds concurrently served allocation requests; excess
	// requests are rejected with 429 immediately (no unbounded queueing).
	// 0 picks DefaultMaxInFlight.
	MaxInFlight int
	// RequestTimeout is the per-request allocation deadline (0 picks
	// DefaultRequestTimeout; negative disables the deadline).
	RequestTimeout time.Duration
	// DrainTimeout bounds Drain's wait for in-flight requests (0 picks
	// DefaultDrainTimeout).
	DrainTimeout time.Duration
	// MaxBodyBytes bounds the request body (0 picks DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// Budget, when Active, bounds every allocation's per-function resources:
	// a wall-clock deadline, a cooperative work-step budget, and a
	// max-values/max-blocks admission gate (see regalloc.WithBudget).
	Budget regalloc.Budget
	// Degrade converts per-function budget trips into degraded-but-correct
	// outcomes (Response.Degraded names the ladder rung) instead of
	// per-function errors; see regalloc.WithDegradation.
	Degrade bool
}

// Defaults for the zero Config fields.
const (
	DefaultMaxInFlight    = 128
	DefaultRequestTimeout = 30 * time.Second
	DefaultDrainTimeout   = 30 * time.Second
	DefaultMaxBodyBytes   = 16 << 20
)

// Server is one allocation service instance. Construct with New; a Server
// is safe for concurrent use.
type Server struct {
	cfg      Config
	engines  *EngineCache
	metrics  *metrics
	inflight chan struct{}
	mux      *http.ServeMux
	httpSrv  *http.Server
	draining chan struct{} // closed when Drain starts
}

// New validates cfg (defaults applied in place of zero fields), builds the
// default engine eagerly — configuration errors surface at startup, not on
// the first request — and returns a ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	var shared *regalloc.Cache
	if cfg.CacheSize > 0 {
		shared = regalloc.NewCache(cfg.CacheSize)
	}
	s := &Server{
		cfg:      cfg,
		engines:  NewEngineCache(shared, cfg.Jobs),
		metrics:  newMetrics(cfg.MaxInFlight),
		inflight: make(chan struct{}, cfg.MaxInFlight),
		draining: make(chan struct{}),
	}
	if cfg.Budget.Active() {
		// Before the eager Get below, so the default engine is governed too.
		s.engines.SetBudget(cfg.Budget, cfg.Degrade)
	}
	if _, err := s.engines.Get(cfg.Registers, cfg.Allocator, cfg.Machine, cfg.Coalesce); err != nil {
		return nil, fmt.Errorf("server: invalid default configuration: %w", err)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/allocate", s.handleAllocate)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	protocols := new(http.Protocols)
	protocols.SetHTTP1(true)
	protocols.SetUnencryptedHTTP2(true) // h2c: cleartext HTTP/2, stdlib-native
	s.httpSrv = &http.Server{
		Handler:           s.countingHandler(),
		ReadHeaderTimeout: 10 * time.Second,
		Protocols:         protocols,
	}
	return s, nil
}

// Handler returns the server's HTTP handler (request counting included) —
// the integration-test entry point.
func (s *Server) Handler() http.Handler { return s.httpSrv.Handler }

// Serve accepts connections on ln until Drain (returns nil) or a listener
// error.
func (s *Server) Serve(ln net.Listener) error {
	err := s.httpSrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe listens on addr and serves until Drain.
func (s *Server) ListenAndServe(addr string) (net.Addr, <-chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	return ln.Addr(), done, nil
}

// Drain gracefully shuts the server down: new connections are refused,
// /readyz flips to 503 (liveness /healthz stays 200), and in-flight
// requests are given up to
// Config.DrainTimeout to finish before the remaining connections are
// closed. It returns nil when everything drained in time.
func (s *Server) Drain(ctx context.Context) error {
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
	}
	return s.httpSrv.Shutdown(ctx)
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// MetricsText renders the Prometheus exposition — what GET /metrics
// serves; front-ends log it as the final flush on drain.
func (s *Server) MetricsText() string {
	var b strings.Builder
	s.writeMetrics(&b)
	return b.String()
}

func (s *Server) writeMetrics(w io.Writer) {
	var cs *cacheStats
	if c := s.engines.SharedCache(); c != nil {
		st := c.Stats()
		cs = &cacheStats{hits: st.Hits, misses: st.Misses, evicted: st.Evicted,
			entries: st.Entries, bytes: st.Bytes, capacity: st.Capacity}
	}
	s.metrics.write(w, s.engines.Len(), cs)
}

// statusRecorder captures the response code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// countingHandler wraps the mux with the per-code request counter.
func (s *Server) countingHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		s.mux.ServeHTTP(rec, r)
		if rec.code == 0 {
			rec.code = http.StatusOK
		}
		s.metrics.countRequest(rec.code)
	})
}

// handleHealthz is the liveness probe: it answers 200 as long as the
// process serves HTTP at all — including while draining, when killing the
// process would abort in-flight work. Orchestrators restart on liveness;
// they must not restart a cleanly draining server.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: 503 once draining (no new work) or
// while admission is saturated — every in-flight slot taken, so the next
// allocation request would be rejected with 429 anyway. Load balancers
// route on readiness; flipping it early sheds traffic before clients burn a
// round trip on a rejection.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if len(s.inflight) >= cap(s.inflight) {
		http.Error(w, "saturated", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

// serverObserver adapts the metrics set to the serving Observer.
type serverObserver struct{ m *metrics }

func (o serverObserver) ObserveStage(stage string, seconds float64) { o.m.observeStage(stage, seconds) }
func (o serverObserver) ObserveFunc(failed bool, ratio float64)     { o.m.observeFunc(failed, ratio) }
func (o serverObserver) ObserveDegraded(rung, stage string)         { o.m.observeDegraded(rung, stage) }
func (o serverObserver) ObserveBudgetExhausted(stage string)        { o.m.observeBudgetExhausted(stage) }
func (o serverObserver) ObserveCoalesce(moveCost, eliminatedCost float64) {
	o.m.observeCoalesce(moveCost, eliminatedCost)
}

// testHookServing, when non-nil, runs inside handleAllocate right after
// admission — tests use it to hold requests in flight deterministically.
var testHookServing func()

// testHookEncode, when non-nil, runs right before the response is encoded;
// a non-nil error simulates a transient encoder failure and the request is
// answered with a 500 in-band error instead — the fault-injection seam of
// the chaos tests. The client still receives exactly one response.
var testHookEncode func() error

func (s *Server) handleAllocate(w http.ResponseWriter, r *http.Request) {
	// Bounded admission: reject instead of queueing. A rejected request
	// costs the client one immediate round trip, not an unbounded wait in
	// a deep queue — the client's backoff is the queue.
	select {
	case s.inflight <- struct{}{}:
	default:
		w.Header().Set("Retry-After", "1")
		writeJSONError(w, http.StatusTooManyRequests, "over capacity: in-flight request limit reached")
		return
	}
	defer func() { <-s.inflight }()
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)
	if testHookServing != nil {
		testHookServing()
	}

	obs := serverObserver{s.metrics}
	start := time.Now()
	bufs := requestBuffers.Get().(*requestBuffer)
	defer bufs.release()
	body, err := readBody(bufs.body, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), min(r.ContentLength, s.cfg.MaxBodyBytes))
	bufs.body = body
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSONError(w, http.StatusRequestEntityTooLarge, "request body over limit")
			return
		}
		writeJSONError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return
	}
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		obs.ObserveStage(StageDecode, time.Since(start).Seconds())
		writeJSONError(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	}
	obs.ObserveStage(StageDecode, time.Since(start).Seconds())

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	resp := Do(ctx, s.engines, req, nil, s.cfg.Registers, s.cfg.Allocator, s.cfg.Machine, s.cfg.Coalesce, obs)

	code := http.StatusOK
	switch {
	case resp.Error != "" && strings.HasPrefix(resp.Error, "bad request:"):
		code = http.StatusBadRequest
	case resp.Error != "" && ctx.Err() != nil && errors.Is(ctx.Err(), context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	}
	start = time.Now()
	if testHookEncode != nil {
		if err := testHookEncode(); err != nil {
			writeJSONError(w, http.StatusInternalServerError, "transient encode failure: "+err.Error())
			obs.ObserveStage(StageEncode, time.Since(start).Seconds())
			return
		}
	}
	bufs.out = bufs.enc.append(bufs.out[:0], &resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(bufs.out) // client gone mid-write: nothing useful to do
	obs.ObserveStage(StageEncode, time.Since(start).Seconds())
}

// requestBuffer is the reusable memory of one allocation request: its body,
// its encoded response and the encoder's scratch. Decoding copies every
// string out of the body, so nothing that outlives the request points into
// it.
type requestBuffer struct {
	body, out []byte
	enc       responseEncoder
}

var requestBuffers = sync.Pool{New: func() any { return new(requestBuffer) }}

// maxPooledBuffer bounds the buffers a pooled requestBuffer keeps; a rare
// huge request must not pin its memory in the pool.
const maxPooledBuffer = 1 << 20

func (b *requestBuffer) release() {
	if cap(b.body) > maxPooledBuffer || cap(b.out) > maxPooledBuffer {
		return
	}
	requestBuffers.Put(b)
}

// readBody reads r to its end into buf, as io.ReadAll does, reusing buf's
// memory. A known content length sizes the buffer up front.
func readBody(buf []byte, r io.Reader, length int64) ([]byte, error) {
	buf = buf[:0]
	if length >= int64(cap(buf)) && length < maxPooledBuffer {
		buf = make([]byte, 0, length+1) // +1: the final read sees EOF without growing
	}
	if cap(buf) < 512 {
		buf = make([]byte, 0, 512)
	}
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// writeJSONError answers an HTTP-level failure with the in-band error
// schema, so clients parse one response shape everywhere.
func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(appendResponse(nil, &Response{Error: msg}))
}

// Package service is the public face of the long-lived allocation server
// (internal/server): the paper's decoupled spill-then-assign pipeline as a
// network service with bounded admission, per-request deadlines,
// Prometheus-style metrics and graceful drain — plus the JSONL
// request/response schema it shares with the cmd/allocbatch streaming
// mode, and the bounded per-configuration engine table both front-ends
// serve from.
//
// Endpoints (see New and Config):
//
//	POST /v1/allocate   one Request in, one Response out
//	GET  /metrics       Prometheus text exposition
//	GET  /healthz       liveness: 200 while the process serves at all
//	GET  /readyz        readiness: 503 while draining or saturated
//
// A Config with an active Budget bounds every allocation's resources;
// with Degrade set, over-budget functions are served from a degradation
// ladder (Response.Degraded names the rung) instead of failing. Client is
// the matching resilient caller: retries with jittered exponential
// backoff, Retry-After pushback, per-attempt deadlines and a total retry
// budget.
package service

import "repro/internal/server"

// Request is one allocation request: a single function (IR) or a whole
// compilation unit (Module), with optional per-request register/allocator
// overrides; "stats":true asks for the service counters instead.
type Request = server.Request

// Response is one allocation response; module requests carry one entry
// per function under Results. Failures are in-band via Error.
type Response = server.Response

// CoalesceInfo is the per-function move report a coalescing-biased
// allocation carries on its Response: total move/φ copy cost, the share the
// biased assignment eliminated at identical spill cost, and the residual.
type CoalesceInfo = server.CoalesceInfo

// ServiceStats is the payload of a "stats":true response.
type ServiceStats = server.ServiceStats

// EngineCache is the bounded per-(registers, allocator) engine table the
// service resolves requests against (LRU-evicted at EngineCacheCap).
type EngineCache = server.EngineCache

// EngineCacheCap is the engine-table bound.
const EngineCacheCap = server.EngineCacheCap

// NewEngineCache builds an engine table; a non-nil shared outcome cache is
// attached to every engine, jobs is the module-request worker count.
var NewEngineCache = server.NewEngineCache

// Observer receives serving telemetry from Do (stage latencies,
// per-function outcomes); nil is valid.
type Observer = server.Observer

// DegradationObserver is an optional Observer extension receiving
// degradation-ladder and budget-exhaustion events from budget-governed
// engines.
type DegradationObserver = server.DegradationObserver

// CoalesceObserver is an optional Observer extension receiving per-function
// move-elimination reports from coalescing-biased allocations.
type CoalesceObserver = server.CoalesceObserver

// DecodeRequest decodes one JSON request body into req (zeroed first):
// the Request and the error are those encoding/json gives, which defines
// the accepted language; canonical bodies take a reflection-free fast path
// that copies the short decoded strings into one allocation and gives each
// long one (over 64 bytes) its own, so a kept short field never keeps a
// large body alive.
var DecodeRequest = server.DecodeRequest

// Do serves one request against an engine table — the single-request core
// shared by the HTTP server and the allocbatch JSONL mode.
var Do = server.Do

// Stage names reported to an Observer.
const (
	StageDecode   = server.StageDecode
	StageParse    = server.StageParse
	StageAllocate = server.StageAllocate
	StageEncode   = server.StageEncode
)

// Config parameterizes a Server: defaults (registers, allocator), the
// module-request worker count, outcome-cache capacity, the in-flight
// admission bound, the per-request timeout and the drain deadline.
type Config = server.Config

// Server is one allocation-service instance; construct with New.
type Server = server.Server

// New validates cfg and builds a ready-to-serve Server.
var New = server.New

// Defaults for zero Config fields.
const (
	DefaultMaxInFlight    = server.DefaultMaxInFlight
	DefaultRequestTimeout = server.DefaultRequestTimeout
	DefaultDrainTimeout   = server.DefaultDrainTimeout
	DefaultMaxBodyBytes   = server.DefaultMaxBodyBytes
)

// Client is a resilient caller for the allocation service: jittered
// exponential backoff over transient failures, Retry-After pushback,
// per-attempt deadlines and a total retry budget.
type Client = server.Client

// AttemptError is the typed failure of an exhausted Client.Allocate.
type AttemptError = server.AttemptError

// RetryableStatus reports whether an HTTP status is worth retrying.
var RetryableStatus = server.RetryableStatus

// Client defaults.
const (
	DefaultMaxAttempts    = server.DefaultMaxAttempts
	DefaultBaseBackoff    = server.DefaultBaseBackoff
	DefaultMaxBackoff     = server.DefaultMaxBackoff
	DefaultAttemptTimeout = server.DefaultAttemptTimeout
)

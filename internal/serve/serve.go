// Package serve implements analysis-as-a-service: a JSON-over-HTTP
// layer over the analysis engine (internal/core) for design-space
// exploration clients that re-run near-identical analyses thousands of
// times (buffer-depth sweeps, priority orderings, mapping searches).
//
// Endpoints (documented in detail in docs/API.md):
//
//	POST /v1/analyze  — one system, one method: response-time bounds
//	POST /v1/batch    — many systems fanned out over a worker pool
//	POST /v1/whatif   — an edit chain against a base system, evaluated
//	                    incrementally on a delta-aware engine
//	GET  /v1/methods  — the registered analyses and their safety
//	GET  /metrics     — counters, cache hit ratio, latency percentiles
//	GET  /healthz     — liveness; 503 while draining
//
// # Request lifecycle and production shape
//
// Every request is decoded strictly (unknown JSON fields are errors),
// then keyed by a canonical hash of (topology, router config, flow set,
// method, options) from internal/canon. A size-bounded LRU serves
// repeated requests without re-analysis; misses pass an admission
// controller — a semaphore that sheds load with 429 + Retry-After
// instead of queueing unboundedly — and run on a warm per-system
// core.Engine from a second LRU, so repeated analyses of one system
// reuse its interference sets and memo arenas. Per-request deadlines
// (the request's timeout_ms, capped by the server default) propagate as
// a context.Context into the engine's fixed-point loops; an expired
// deadline aborts mid-iteration with 504. Shutdown stops admitting new
// work (503) and drains in-flight analyses.
//
// # Fault containment
//
// The analysis is a deterministic fixed point: the same system yields
// the same bound, or the same invariant-violation panic, every time, so
// a failed analysis is never retried and no method is ever shed for its
// failures. Faults are contained instead: core.Guard and the batch
// worker pool recover panics into typed errors (500 with an incident ID,
// or a per-item "panic" error that leaves sibling items intact), and the
// handler middleware catches anything that escapes them. Admission
// control and per-request deadlines bound what one client's work can
// cost the others.
//
// # Concurrency
//
// A Server is a single object shared by all connections; every piece of
// mutable state (both LRUs, the metrics, the admission semaphore) is
// individually synchronised, and engines are themselves safe for
// concurrent runs. Handlers hold no locks while analysing.
package serve

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"wormnoc/internal/core"
	"wormnoc/internal/faultinject"
	"wormnoc/internal/traffic"
)

// Config tunes a Server. The zero value selects production-reasonable
// defaults (see each field).
type Config struct {
	// MaxInFlight bounds concurrently executing analyses (cache misses
	// and batches). Further work is shed with 429. Default:
	// 2×GOMAXPROCS.
	MaxInFlight int
	// ResultCacheSize bounds the response LRU (entries). Default 4096.
	ResultCacheSize int
	// EngineCacheSize bounds the warm-engine LRU (entries; one engine
	// pins one system's interference sets in memory). Default 64.
	EngineCacheSize int
	// DefaultTimeout is applied when a request names no timeout_ms, and
	// caps any timeout_ms a client does name. Default 30s.
	DefaultTimeout time.Duration
	// MaxRequestBytes caps request bodies. Default 16 MiB.
	MaxRequestBytes int64
	// BatchWorkers bounds one batch's fan-out. Default GOMAXPROCS.
	BatchWorkers int
	// MaxBatchSystems caps the systems accepted per batch request
	// (larger batches get 422). Default 1024.
	MaxBatchSystems int
	// MaxWhatIfDeltas caps the edit chain accepted per what-if request
	// (longer chains get 422). Default 256.
	MaxWhatIfDeltas int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 4096
	}
	if c.EngineCacheSize <= 0 {
		c.EngineCacheSize = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 16 << 20
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatchSystems <= 0 {
		c.MaxBatchSystems = 1024
	}
	if c.MaxWhatIfDeltas <= 0 {
		c.MaxWhatIfDeltas = 256
	}
	return c
}

// Server is the analysis service. Create one with New, expose it with
// Handler, stop it with Shutdown. Safe for concurrent use.
type Server struct {
	cfg      Config
	results  *lruCache[*AnalyzeResponse]
	engines  *lruCache[*core.Engine]
	sem      chan struct{}
	met      *metrics
	mux      *http.ServeMux
	draining atomic.Bool
	inflight sync.WaitGroup
	// enginesMu serialises engine construction so concurrent misses on
	// one system build its interference sets once, not once per caller.
	enginesMu sync.Mutex
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	s := &Server{
		cfg: cfg.withDefaults(),
		met: newMetrics(),
	}
	s.results = newLRU[*AnalyzeResponse](s.cfg.ResultCacheSize, nil)
	s.engines = newLRU[*core.Engine](s.cfg.EngineCacheSize, func(_ string, e *core.Engine) {
		// A nil engine can only reach the pool through a bug in the
		// build path, but a fault there must not take the eviction
		// path (and the whole server) down with it.
		if e == nil {
			return
		}
		s.met.retire(e.Telemetry())
	})
	s.sem = make(chan struct{}, s.cfg.MaxInFlight)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/analyze", s.wrap("analyze", true, s.handleAnalyze))
	s.mux.HandleFunc("POST /v1/batch", s.wrap("batch", true, s.handleBatch))
	s.mux.HandleFunc("POST /v1/whatif", s.wrap("whatif", true, s.handleWhatIf))
	s.mux.HandleFunc("GET /v1/methods", s.wrap("methods", false, s.handleMethods))
	s.mux.HandleFunc("GET /metrics", s.wrap("metrics", false, s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.wrap("healthz", false, s.handleHealthz))
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the server's HTTP handler, suitable for http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown makes the server refuse new requests with 503 and waits for
// in-flight ones to drain, or for ctx to expire. Combine with
// http.Server.Shutdown, which additionally drains connections.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// statusRecorder captures the status code a handler writes, for the
// per-status response counters and so the panic-recovery middleware
// knows whether a 500 can still be written.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// incidentID returns a fresh opaque identifier correlating a recovered
// panic's 500 response with the stack logged server-side.
func incidentID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to
		// a time-derived id rather than crashing the recovery path.
		return fmt.Sprintf("inc-t%x", time.Now().UnixNano())
	}
	return "inc-" + hex.EncodeToString(b[:])
}

// wrap applies the request lifecycle shared by every endpoint: panic
// recovery (500 + incident ID — a handler fault never kills the
// process), in-flight tracking for graceful drain, the 503 gate while
// draining, body-size capping, and metrics (request/status counters;
// latency percentiles for the analysis endpoints when timed).
func (s *Server) wrap(endpoint string, timed bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Done()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() { s.met.recordRequest(endpoint, rec.status) }()
		defer func() {
			if v := recover(); v != nil {
				id := incidentID()
				log.Printf("serve: panic in %s handler (incident %s): %v\n%s", endpoint, id, v, debug.Stack())
				s.met.recordPanic()
				if !rec.wrote {
					writeJSON(rec, http.StatusInternalServerError, errorResponse{
						Error:      fmt.Sprintf("internal error (incident %s)", id),
						IncidentID: id,
					})
				} else {
					// Headers are gone; the most we can do is record
					// the real outcome for the status counters.
					rec.status = http.StatusInternalServerError
				}
			}
		}()
		if s.draining.Load() {
			writeError(rec, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(rec, r.Body, s.cfg.MaxRequestBytes)
		}
		t0 := time.Now()
		h(rec, r)
		if timed {
			s.met.recordLatency(time.Since(t0))
		}
	}
}

// admit tries to take an admission slot without queueing. The returned
// release func is nil when the server is saturated — the caller must
// then shed the request.
func (s *Server) admit() (release func()) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }
	default:
		return nil
	}
}

// engine returns the warm engine for the document's system, pooled
// under key (the document's canon.SystemKey), building system +
// interference sets on first sight. Construction runs behind
// core.Guard, so a panic while building the interference sets of an
// adversarial system surfaces as a typed *core.InternalError and never
// leaves a nil engine in the pool.
func (s *Server) engine(doc traffic.Document, key string) (*core.Engine, error) {
	if e, ok := s.engines.Get(key); ok && e != nil {
		return e, nil
	}
	s.enginesMu.Lock()
	defer s.enginesMu.Unlock()
	if e, ok := s.engines.Get(key); ok && e != nil {
		return e, nil
	}
	if faultinject.Enabled() {
		faultinject.Fire(faultinject.SiteServeEngineBuild, key)
	}
	sys, err := doc.System()
	if err != nil {
		return nil, err
	}
	var e *core.Engine
	if err := core.Guard("engine build", func() error {
		e = core.NewEngine(sys)
		return nil
	}); err != nil {
		return nil, err
	}
	s.engines.Put(key, e)
	return e, nil
}

// liveTelemetry sums the telemetry of every engine currently pooled.
func (s *Server) liveTelemetry() core.Telemetry {
	var tel core.Telemetry
	for _, e := range s.engines.Values() {
		if e == nil {
			continue
		}
		tel.Add(e.Telemetry())
	}
	return tel
}

// requestTimeout resolves a request's timeout_ms against the server
// default: unset/non-positive selects the default, anything larger is
// capped by it.
func (s *Server) requestTimeout(timeoutMs int64) time.Duration {
	d := time.Duration(timeoutMs) * time.Millisecond
	if d <= 0 || d > s.cfg.DefaultTimeout {
		return s.cfg.DefaultTimeout
	}
	return d
}

// errorResponse is the JSON body of every non-2xx response. IncidentID
// is set on 500s from recovered panics so a client report can be
// correlated with the stack logged server-side.
type errorResponse struct {
	Error      string `json:"error"`
	IncidentID string `json:"incident_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

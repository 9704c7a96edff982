package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"wormnoc/internal/canon"
	"wormnoc/internal/core"
	"wormnoc/internal/faultinject"
	"wormnoc/internal/parallel"
	"wormnoc/internal/traffic"
)

// RequestOptions mirrors core.Options on the wire (see docs/API.md).
// All fields are optional; the zero value selects the defaults the CLIs
// use.
type RequestOptions struct {
	// BufDepth overrides buf(Ξ) for IBN/SLA when > 0.
	BufDepth int `json:"buf,omitempty"`
	// Eq7 selects the un-clamped Equation-7 ablation (IBN only; unsafe).
	Eq7 bool `json:"eq7,omitempty"`
	// NoUpstreamFallback disables IBN's upstream-interference safety
	// fallback (ablation; unsafe).
	NoUpstreamFallback bool `json:"no_upstream_fallback,omitempty"`
	// MaxIterations caps the per-flow fixed-point iteration (0 = the
	// engine default).
	MaxIterations int `json:"max_iterations,omitempty"`
}

func (o *RequestOptions) toCore(m core.Method) core.Options {
	opt := core.Options{Method: m}
	if o != nil {
		opt.BufDepth = o.BufDepth
		opt.Eq7 = o.Eq7
		opt.NoUpstreamFallback = o.NoUpstreamFallback
		opt.MaxIterations = o.MaxIterations
	}
	return opt
}

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	// System is the platform + flow set, in the same schema as the CLIs'
	// flow-set files (internal/traffic.Document).
	System traffic.Document `json:"system"`
	// Method names the analysis: "SB", "SLA", "XLWX" or "IBN".
	Method string `json:"method"`
	// Options tunes the analysis (optional).
	Options *RequestOptions `json:"options,omitempty"`
	// TimeoutMs is this request's deadline in milliseconds; 0 selects
	// the server default, larger values are capped by it.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// FlowResult is one flow's outcome inside an AnalyzeResponse.
type FlowResult struct {
	Name     string `json:"name,omitempty"`
	Priority int    `json:"priority"`
	// C is the zero-load latency (Equation 1), R the worst-case bound,
	// both in cycles. R is meaningful for statuses "schedulable" and
	// "deadline-miss" only.
	C        int64  `json:"c"`
	Deadline int64  `json:"deadline"`
	R        int64  `json:"r"`
	Status   string `json:"status"`
}

// AnalyzeResponse is the body of a successful POST /v1/analyze, and of
// each successful element of a batch.
type AnalyzeResponse struct {
	Method      string       `json:"method"`
	Schedulable bool         `json:"schedulable"`
	Flows       []FlowResult `json:"flows"`
	// Key is the canonical request hash the result is cached under.
	Key string `json:"key"`
	// SystemKey is the canonical hash of the system alone (no method or
	// options) — the handle POST /v1/whatif accepts as a base reference.
	// Empty inside what-if steps (edited systems are identified by their
	// chained Key, not pooled as warm engines).
	SystemKey string `json:"system_key,omitempty"`
	// Cached reports whether this response was served from the result
	// cache without re-analysis.
	Cached bool `json:"cached"`
	// ElapsedUs is the analysis wall time of the run that produced the
	// result (not of this request when Cached).
	ElapsedUs int64 `json:"elapsed_us"`
}

// BatchRequest is the body of POST /v1/batch: one method + options
// applied to many systems (the design-space-exploration shape: same
// analysis, varied topology/flow set).
type BatchRequest struct {
	Systems   []traffic.Document `json:"systems"`
	Method    string             `json:"method"`
	Options   *RequestOptions    `json:"options,omitempty"`
	TimeoutMs int64              `json:"timeout_ms,omitempty"`
}

// Per-item error codes of a BatchItem (see docs/API.md). They classify
// the failure so clients can decide what to do per item: re-submitting
// an "invalid_system" is pointless, a "timeout" may succeed with a
// larger budget, a "panic" should be reported with its message, and a
// "transient" already consumed the server-side retry budget.
const (
	errCodeInvalid   = "invalid_system"
	errCodeTimeout   = "timeout"
	errCodePanic     = "panic"
	errCodeTransient = "transient"
)

// BatchItem is one system's outcome inside a BatchResponse: either an
// embedded AnalyzeResponse or an error (with its classification code),
// never both. Items fail independently — a fault in one never discards
// its siblings' results.
type BatchItem struct {
	*AnalyzeResponse
	// Error is the human-readable failure (empty on success).
	Error string `json:"error,omitempty"`
	// Code classifies the failure: "invalid_system", "timeout", "panic"
	// or "transient" (empty on success).
	Code string `json:"code,omitempty"`
	// Retries counts the server-side retry attempts this item consumed
	// (transient faults only).
	Retries int `json:"retries,omitempty"`
}

// BatchResponse is the body of POST /v1/batch. Results are indexed like
// the request's systems. The response is 200 whenever at least one item
// produced a result (or no deadline expired); per-item failures are
// reported in place.
type BatchResponse struct {
	Results   []BatchItem `json:"results"`
	CacheHits int         `json:"cache_hits"`
	// Failed counts the items that carry an error instead of a result.
	Failed int `json:"failed"`
}

// MethodInfo describes one analysis at GET /v1/methods.
type MethodInfo struct {
	Name string `json:"name"`
	// Safe reports whether the analysis is a sound upper bound under
	// multi-point progressive blocking. Unsafe analyses are served for
	// comparison studies only.
	Safe        bool   `json:"safe"`
	Description string `json:"description"`
}

// methodCatalog carries the human-facing metadata of the analyses that
// core.Methods does not.
var methodCatalog = map[core.Method]MethodInfo{
	core.SB:   {Safe: false, Description: "Shi & Burns 2008; historic baseline, optimistic (unsafe) under multi-point progressive blocking"},
	core.SLA:  {Safe: false, Description: "simplified stage-level analysis; buffer-aware refinement of SB, still unsafe under MPB"},
	core.XLWX: {Safe: true, Description: "Xiong et al. 2017 with the interference-jitter fix (Eq. 5); safe state-of-the-art baseline"},
	core.IBN:  {Safe: true, Description: "the paper's buffer-aware analysis (Eqs. 6-8); never looser than XLWX"},
}

// decodeStrict decodes r into v, rejecting unknown fields and trailing
// garbage so schema typos fail loudly instead of silently analysing a
// default.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// isTransient reports whether err (or anything it wraps) marks itself
// as retryable via a Transient() bool method. Injected faults do;
// invalid systems, deadline expiries and panics do not.
func isTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// classifyError maps an analysis failure to its per-item error code and
// the HTTP status it carries when it is the whole response.
func classifyError(err error) (code string, status int) {
	var pe *parallel.PanicError
	var ie *core.InternalError
	switch {
	case errors.As(err, &pe), errors.As(err, &ie):
		return errCodePanic, http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return errCodeTimeout, http.StatusGatewayTimeout
	case isTransient(err):
		return errCodeTransient, http.StatusInternalServerError
	default:
		return errCodeInvalid, http.StatusUnprocessableEntity
	}
}

// isInternalFault reports whether err consumes the method's error
// budget: panics and transient server-side faults do, client errors and
// deadline expiries do not.
func isInternalFault(err error) bool {
	if err == nil {
		return false
	}
	code, _ := classifyError(err)
	return code == errCodePanic || code == errCodeTransient
}

// itemErrorMessage renders one batch item's failure for the wire.
// Panic-coded faults mirror the wrap middleware's redaction: the raw
// panic value (and stack) stays in the server-side log, the client
// gets an opaque incident reference.
func itemErrorMessage(i int, code string, err error) string {
	if code != errCodePanic {
		return err.Error()
	}
	id := incidentID()
	log.Printf("serve: batch item %d fault (incident %s): %v", i, id, err)
	return fmt.Sprintf("internal error (incident %s)", id)
}

// analyzeOne runs (or cache-serves) one system+options pair. It is the
// shared core of /v1/analyze and each /v1/batch element. The returned
// status is the HTTP status the outcome maps to; resp is nil unless
// status is 200. Engine construction and the analysis itself run behind
// the core panic boundary, so a library invariant violation surfaces as
// a typed *core.InternalError, never a raw panic. An injected cache
// fault degrades to recompute-and-don't-store rather than failing the
// request.
func (s *Server) analyzeOne(ctx context.Context, doc traffic.Document, opt core.Options) (resp *AnalyzeResponse, status int, err error) {
	key := canon.Key(doc, opt)
	cacheOK := true
	if faultinject.Enabled() {
		if ferr := faultinject.Fire(faultinject.SiteServeCacheGet, key); ferr != nil {
			cacheOK = false
		}
	}
	if cacheOK {
		if cached, ok := s.results.Get(key); ok {
			s.met.recordCache(true)
			hit := *cached
			hit.Cached = true
			return &hit, http.StatusOK, nil
		}
	}
	s.met.recordCache(false)

	eng, err := s.engine(ctx, doc)
	if err != nil {
		_, status = classifyError(err)
		return nil, status, err
	}
	t0 := time.Now()
	res, err := eng.AnalyzeContext(ctx, opt)
	if err != nil {
		_, status = classifyError(err)
		return nil, status, err
	}
	sys := eng.System()
	out := &AnalyzeResponse{
		Method:      opt.Method.String(),
		Schedulable: res.Schedulable,
		Flows:       make([]FlowResult, sys.NumFlows()),
		Key:         key,
		SystemKey:   canon.SystemKey(doc),
		ElapsedUs:   time.Since(t0).Microseconds(),
	}
	for i := range out.Flows {
		f := sys.Flow(i)
		out.Flows[i] = FlowResult{
			Name:     f.Name,
			Priority: f.Priority,
			C:        int64(sys.C(i)),
			Deadline: int64(f.Deadline),
			R:        int64(res.Flows[i].R),
			Status:   res.Flows[i].Status.String(),
		}
	}
	if cacheOK {
		putOK := true
		if faultinject.Enabled() {
			if ferr := faultinject.Fire(faultinject.SiteServeCachePut, key); ferr != nil {
				putOK = false
			}
		}
		if putOK {
			s.results.Put(key, out)
		}
	}
	return out, http.StatusOK, nil
}

// maxRetryBackoff caps the exponential retry backoff: it bounds the
// worst-case per-attempt delay and keeps the doubling below from
// overflowing time.Duration when ItemRetries is configured large.
const maxRetryBackoff = time.Second

// retryDelay returns the backoff before retry attempt (0-based): base
// doubled per attempt, clamped to maxRetryBackoff, jittered ±50% to
// avoid retry synchronisation.
func retryDelay(base time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < maxRetryBackoff; i++ {
		d <<= 1
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// analyzeWithRetry is analyzeOne plus the bounded retry policy for
// transient faults: up to cfg.ItemRetries re-attempts with doubling,
// ±50%-jittered backoff, aborted early by the context. The returned
// retries counts the re-attempts actually executed.
func (s *Server) analyzeWithRetry(ctx context.Context, doc traffic.Document, opt core.Options) (resp *AnalyzeResponse, status, retries int, err error) {
	for attempt := 0; ; attempt++ {
		resp, status, err = s.analyzeOne(ctx, doc, opt)
		if err == nil || attempt >= s.cfg.ItemRetries || !isTransient(err) || ctx.Err() != nil {
			return resp, status, attempt, err
		}
		t := time.NewTimer(retryDelay(s.cfg.RetryBackoff, attempt))
		select {
		case <-ctx.Done():
			t.Stop()
			return resp, status, attempt, err
		case <-t.C:
		}
		s.met.recordRetry()
	}
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	m, err := core.ParseMethod(req.Method)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	opt := req.Options.toCore(m)

	// Cache hits are served without an admission slot: they do no
	// analysis work, and shedding them would defeat the cache.
	key := canon.Key(req.System, opt)
	if cached, ok := s.results.Get(key); ok {
		s.met.recordCache(true)
		hit := *cached
		hit.Cached = true
		writeJSON(w, http.StatusOK, &hit)
		return
	}

	// The circuit breaker sheds only the tripped method. The cache check
	// above runs before this gate, so an open breaker never 503s a
	// cache-servable /v1/analyze request. (Batches of an open method are
	// shed wholly, cache-servable items included — see handleBatch.)
	if !s.brk.allow(m.String()) {
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.BreakerCooldown/time.Second)+1))
		writeError(w, http.StatusServiceUnavailable, "analysis method %s is degraded (circuit open), retry later", m)
		return
	}
	// A request that passed the gate but never reaches record below —
	// shed at admission, or served from the cache inside analyzeOne —
	// must hand back the half-open probe slot it may hold, or the
	// breaker would wedge in half-open with no probe outcome arriving.
	recorded := false
	defer func() {
		if !recorded {
			s.brk.release(m.String())
		}
	}()

	release := s.admit()
	if release == nil {
		s.met.recordShed()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "analysis capacity saturated (%d in flight), retry later", s.cfg.MaxInFlight)
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(req.TimeoutMs))
	defer cancel()
	resp, status, _, err := s.analyzeWithRetry(ctx, req.System, opt)
	if err != nil || !resp.Cached {
		// Cache hits do no engine work and stay out of the error budget.
		s.brk.record(m.String(), isInternalFault(err))
		recorded = true
	}
	if err != nil {
		code, _ := classifyError(err)
		if code == errCodePanic {
			id := incidentID()
			log.Printf("serve: analysis fault (incident %s): %v", id, err)
			s.met.recordPanic()
			// The raw panic value stays in the server-side log; the
			// client sees the same redacted form the wrap middleware
			// uses for uncontained panics.
			writeJSON(w, status, errorResponse{
				Error:      fmt.Sprintf("internal error (incident %s)", id),
				IncidentID: id,
			})
			return
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(req.Systems) == 0 {
		writeError(w, http.StatusUnprocessableEntity, "batch names no systems")
		return
	}
	if len(req.Systems) > s.cfg.MaxBatchSystems {
		writeError(w, http.StatusUnprocessableEntity, "batch of %d systems exceeds the cap of %d", len(req.Systems), s.cfg.MaxBatchSystems)
		return
	}
	m, err := core.ParseMethod(req.Method)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	opt := req.Options.toCore(m)

	// A batch names a single method, so a tripped breaker sheds the
	// whole batch — and only batches (and analyses) of that method. The
	// gate runs before any per-item cache lookup, so cache-servable
	// items of an open method are shed too.
	if !s.brk.allow(m.String()) {
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.BreakerCooldown/time.Second)+1))
		writeError(w, http.StatusServiceUnavailable, "analysis method %s is degraded (circuit open), retry later", m)
		return
	}
	// As in handleAnalyze: a batch that records no run outcome (every
	// item cache-served, or shed at admission) must hand back a
	// half-open probe slot it may hold. Items record from worker
	// goroutines, hence the atomic.
	var recorded atomic.Bool
	defer func() {
		if !recorded.Load() {
			s.brk.release(m.String())
		}
	}()

	// One admission slot covers the whole batch; its internal fan-out is
	// bounded separately by BatchWorkers.
	release := s.admit()
	if release == nil {
		s.met.recordShed()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "analysis capacity saturated (%d in flight), retry later", s.cfg.MaxInFlight)
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(req.TimeoutMs))
	defer cancel()

	n := len(req.Systems)
	out := BatchResponse{Results: make([]BatchItem, n)}
	handled := make([]bool, n)
	// Every item succeeds, fails or times out independently: the
	// KeepGoing pool records per-index failures (including recovered
	// panics) instead of cancelling siblings, and each item consumes its
	// own retry budget for transient faults.
	runner := &parallel.Runner{Workers: s.cfg.BatchWorkers, KeepGoing: true}
	runErr := runner.RunContext(ctx, n, func(i int) error {
		if faultinject.Enabled() {
			if ferr := faultinject.Fire(faultinject.SiteServeBatchItem, strconv.Itoa(i)); ferr != nil {
				return ferr
			}
		}
		resp, _, retries, err := s.analyzeWithRetry(ctx, req.Systems[i], opt)
		if err != nil || !resp.Cached {
			s.brk.record(m.String(), isInternalFault(err))
			recorded.Store(true)
		}
		if err != nil {
			code, _ := classifyError(err)
			if code == errCodePanic {
				s.met.recordItemPanic()
			}
			out.Results[i] = BatchItem{Error: itemErrorMessage(i, code, err), Code: code, Retries: retries}
		} else {
			out.Results[i] = BatchItem{AnalyzeResponse: resp, Retries: retries}
		}
		handled[i] = true
		return nil
	})
	// Items the fn above never completed: a panic raised (or injected)
	// at the task boundary — recorded per index by the KeepGoing pool —
	// or a task never dispatched because the batch deadline expired.
	var te *parallel.TaskErrors
	if runErr != nil {
		errors.As(runErr, &te)
	}
	for i := range out.Results {
		if handled[i] {
			continue
		}
		ierr := te.Of(i)
		if ierr == nil {
			cause := ctx.Err()
			if cause == nil {
				cause = context.DeadlineExceeded
			}
			ierr = fmt.Errorf("batch item not run: %w", cause)
		}
		code, _ := classifyError(ierr)
		if code == errCodePanic {
			s.met.recordItemPanic()
		}
		// An internal fault surfacing at the task boundary consumes the
		// error budget exactly like the same fault raised inside
		// analyzeWithRetry. Items that never ran (deadline expired before
		// dispatch) had no run outcome and feed nothing into the window.
		if isInternalFault(ierr) {
			s.brk.record(m.String(), true)
			recorded.Store(true)
		}
		out.Results[i] = BatchItem{Error: itemErrorMessage(i, code, ierr), Code: code}
	}
	for i := range out.Results {
		if res := out.Results[i].AnalyzeResponse; res != nil {
			if res.Cached {
				out.CacheHits++
			}
		} else {
			out.Failed++
		}
	}
	// Batch-level 504 only when the deadline expired and *every* item
	// was lost; any partial success is a 200 with mixed results.
	if out.Failed == n && ctx.Err() != nil {
		writeError(w, http.StatusGatewayTimeout, "batch aborted, no item completed: %v", ctx.Err())
		return
	}
	writeJSON(w, http.StatusOK, &out)
}

func (s *Server) handleMethods(w http.ResponseWriter, r *http.Request) {
	ids := core.Methods()
	out := make([]MethodInfo, 0, len(ids))
	for _, id := range ids {
		info := methodCatalog[id]
		info.Name = id.String()
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	trips, shed := s.brk.counters()
	writeJSON(w, http.StatusOK, s.met.snapshot(
		len(s.sem), s.cfg.MaxInFlight,
		s.results.Len(), s.cfg.ResultCacheSize,
		s.engines.Len(), s.cfg.EngineCacheSize,
		s.liveTelemetry(),
		trips, shed, s.brk.openMethods(),
	))
}

// handleHealthz reports liveness plus the degraded-readiness state of
// the circuit breaker: while one or more methods are tripped the server
// stays up (200) but flags itself degraded and names the shed methods,
// so orchestration can distinguish "partially serving" from "dead"
// (draining is still a 503 via the wrap gate).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	open := s.brk.openMethods()
	body := map[string]any{"ok": len(open) == 0}
	if len(open) > 0 {
		body["degraded"] = true
		body["open_methods"] = open
	}
	writeJSON(w, http.StatusOK, body)
}

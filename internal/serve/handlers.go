package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
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
// larger budget, and a "panic" should be reported with its message (it
// recurs on every re-submission: the analysis is deterministic).
const (
	errCodeInvalid = "invalid_system"
	errCodeTimeout = "timeout"
	errCodePanic   = "panic"
)

// BatchItem is one system's outcome inside a BatchResponse: either an
// embedded AnalyzeResponse or an error (with its classification code),
// never both. Items fail independently — a fault in one never discards
// its siblings' results.
type BatchItem struct {
	*AnalyzeResponse
	// Error is the human-readable failure (empty on success).
	Error string `json:"error,omitempty"`
	// Code classifies the failure: "invalid_system", "timeout" or
	// "panic" (empty on success).
	Code string `json:"code,omitempty"`
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
	default:
		return errCodeInvalid, http.StatusUnprocessableEntity
	}
}

// errorMessage renders the failure of one batch item or what-if step
// (unit names which, i its index) for the wire. Panic-coded faults
// mirror the wrap middleware's redaction: the raw panic value (and
// stack) stays in the server-side log, the client gets an opaque
// incident reference.
func errorMessage(unit string, i int, code string, err error) string {
	if code != errCodePanic {
		return err.Error()
	}
	id := incidentID()
	log.Printf("serve: %s %d fault (incident %s): %v", unit, i, id, err)
	return fmt.Sprintf("internal error (incident %s)", id)
}

// lookup serves key from the result cache, recording a hit; a miss is
// recorded by whoever then runs the analysis.
func (s *Server) lookup(key string) (*AnalyzeResponse, bool) {
	cached, ok := s.results.Get(key)
	if !ok {
		return nil, false
	}
	s.met.recordCache(true)
	hit := *cached
	hit.Cached = true
	return &hit, true
}

// newResponse renders res, the analysis of sys under method m that took
// elapsed, as the wire response cached under key.
func newResponse(sys *traffic.System, res *core.Result, m core.Method, key string, elapsed time.Duration) *AnalyzeResponse {
	out := &AnalyzeResponse{
		Method:      m.String(),
		Schedulable: res.Schedulable,
		Flows:       make([]FlowResult, sys.NumFlows()),
		Key:         key,
		ElapsedUs:   elapsed.Microseconds(),
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
	return out
}

// analyzeOne analyses one system+options pair that missed the result
// cache under key, and caches the response. It is the shared core of
// /v1/analyze and each /v1/batch element. Engine construction and the
// analysis itself run behind the core panic boundary, so a library
// invariant violation surfaces as a typed *core.InternalError, never a
// raw panic.
func (s *Server) analyzeOne(ctx context.Context, doc traffic.Document, opt core.Options, key string) (*AnalyzeResponse, error) {
	s.met.recordCache(false)
	sysKey := canon.SystemKey(doc)
	eng, err := s.engine(doc, sysKey)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := eng.AnalyzeContext(ctx, opt)
	if err != nil {
		return nil, err
	}
	out := newResponse(eng.System(), res, opt.Method, key, time.Since(t0))
	out.SystemKey = sysKey
	s.results.Put(key, out)
	return out, nil
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
	if hit, ok := s.lookup(key); ok {
		writeJSON(w, http.StatusOK, hit)
		return
	}

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
	resp, err := s.analyzeOne(ctx, req.System, opt, key)
	if err != nil {
		code, status := classifyError(err)
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
	writeJSON(w, http.StatusOK, resp)
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
	// panics) instead of cancelling siblings.
	runner := &parallel.Runner{Workers: s.cfg.BatchWorkers, KeepGoing: true}
	runErr := runner.RunContext(ctx, n, func(i int) error {
		if faultinject.Enabled() {
			faultinject.Fire(faultinject.SiteServeBatchItem, strconv.Itoa(i))
		}
		key := canon.Key(req.Systems[i], opt)
		resp, ok := s.lookup(key)
		var err error
		if !ok {
			resp, err = s.analyzeOne(ctx, req.Systems[i], opt, key)
		}
		if err != nil {
			code, _ := classifyError(err)
			if code == errCodePanic {
				s.met.recordItemPanic()
			}
			out.Results[i] = BatchItem{Error: errorMessage("batch item", i, code, err), Code: code}
		} else {
			out.Results[i] = BatchItem{AnalyzeResponse: resp}
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
		out.Results[i] = BatchItem{Error: errorMessage("batch item", i, code, ierr), Code: code}
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
	writeJSON(w, http.StatusOK, s.met.snapshot(
		len(s.sem), s.cfg.MaxInFlight,
		s.results.Len(), s.cfg.ResultCacheSize,
		s.engines.Len(), s.cfg.EngineCacheSize,
		s.liveTelemetry(),
	))
}

// handleHealthz reports liveness. A draining server never reaches it:
// the wrap gate answers 503 first.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

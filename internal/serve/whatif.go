package serve

import (
	"context"
	"errors"
	"net/http"
	"time"

	"wormnoc/internal/canon"
	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
)

// DeltaSpec mirrors core.Delta on the wire (see docs/API.md). Kind names
// the edit ("period", "deadline", "jitter", "length", "buf",
// "swap-priority", "remap", "add-flow", "remove-flow"); only the fields
// that kind reads are meaningful.
type DeltaSpec struct {
	Kind string `json:"kind"`
	// Flow is the edited flow's index (first flow of a swap-priority).
	Flow int `json:"flow,omitempty"`
	// Other is the second flow of a swap-priority.
	Other int `json:"other,omitempty"`
	// Cycles is the new period, deadline, or jitter value.
	Cycles int64 `json:"cycles,omitempty"`
	// Length is the new payload length of a length delta.
	Length int `json:"length,omitempty"`
	// BufDepth is the new platform buffer depth of a buf delta.
	BufDepth int `json:"buf,omitempty"`
	// Src and Dst are the new endpoints of a remap.
	Src int `json:"src,omitempty"`
	Dst int `json:"dst,omitempty"`
	// NewFlow is the flow appended by an add-flow.
	NewFlow *traffic.FlowSpec `json:"new_flow,omitempty"`
}

// toCore parses the wire form into the engine's typed edit.
func (d DeltaSpec) toCore() (core.Delta, error) {
	kind, err := core.ParseDeltaKind(d.Kind)
	if err != nil {
		return core.Delta{}, err
	}
	cd := core.Delta{
		Kind:     kind,
		Flow:     d.Flow,
		Other:    d.Other,
		Cycles:   noc.Cycles(d.Cycles),
		Length:   d.Length,
		BufDepth: d.BufDepth,
		Src:      noc.NodeID(d.Src),
		Dst:      noc.NodeID(d.Dst),
	}
	if kind == core.DeltaAddFlow {
		if d.NewFlow == nil {
			return core.Delta{}, errors.New("add-flow delta names no new_flow")
		}
		f := *d.NewFlow
		cd.NewFlow = traffic.Flow{
			Name:     f.Name,
			Priority: f.Priority,
			Period:   noc.Cycles(f.Period),
			Deadline: noc.Cycles(f.Deadline),
			Jitter:   noc.Cycles(f.Jitter),
			Length:   f.Length,
			Src:      noc.NodeID(f.Src),
			Dst:      noc.NodeID(f.Dst),
		}
	}
	return cd, nil
}

// WhatIfRequest is the body of POST /v1/whatif: a base system plus an
// edit chain, evaluated sequentially on one delta-aware engine.
type WhatIfRequest struct {
	// System is the inline base system. Exactly one of System and
	// SystemKey must be set.
	System *traffic.Document `json:"system,omitempty"`
	// SystemKey references a previously analysed base by the system_key
	// of its /v1/analyze response; it is served from the warm-engine
	// cache and 404s once evicted (resend the system inline then).
	SystemKey string `json:"system_key,omitempty"`
	// Method names the analysis: "SB", "SLA", "XLWX" or "IBN".
	Method string `json:"method"`
	// Options tunes the analysis (optional).
	Options *RequestOptions `json:"options,omitempty"`
	// Deltas is the edit chain, applied in order. Evaluation stops at
	// the first delta that fails to apply or analyse.
	Deltas []DeltaSpec `json:"deltas"`
	// TimeoutMs bounds the whole chain (0 = server default, which also
	// caps it).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// WhatIfStep is one edit's outcome inside a WhatIfResponse: the bounds
// of the system with the chain's deltas up to and including this one
// applied, or the error that stopped the chain — never both.
type WhatIfStep struct {
	// Delta echoes the edit this step applied.
	Delta DeltaSpec `json:"delta"`
	*AnalyzeResponse
	// Error is the failure that stopped the chain here (empty on
	// success). Code classifies it like a batch item's.
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// WhatIfResponse is the body of POST /v1/whatif. Steps holds one entry
// per evaluated delta, in request order; a failed step is the last one.
type WhatIfResponse struct {
	// BaseKey is the canonical (system, method, options) hash of the
	// unedited base — the root the steps' chained keys derive from.
	BaseKey string `json:"base_key"`
	// Steps are the per-delta results. Len < len(request deltas) only
	// when a step failed (the failing step is included).
	Steps []WhatIfStep `json:"steps"`
	// CacheHits counts steps served from the result cache.
	CacheHits int `json:"cache_hits"`
	// Failed is 1 when the chain stopped at a failing step, else 0.
	Failed int `json:"failed"`
	// Incremental-engine observability for the whole chain.
	FullRuns        int64 `json:"full_runs"`
	PartialRuns     int64 `json:"partial_runs"`
	FlowsReanalyzed int64 `json:"flows_reanalyzed"`
	FlowsSkipped    int64 `json:"flows_skipped"`
	WarmAccepted    int64 `json:"warm_accepted,omitempty"`
}

// handleWhatIf evaluates an edit chain against a base system on one
// request-local core.Incremental. The engine is derived from the warm
// per-system Engine (shared immutable interference sets, so a whatif
// against an analysed base never rebuilds them), each step's result is
// cached under a chained canonical key (canon.DeltaKey), and a step
// whose key hits the result cache applies its delta without
// re-analysing — the pending invalidation simply accumulates into the
// next analysed step. Admission and the request deadline apply as for
// /v1/analyze.
func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	var req WhatIfRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if (req.System == nil) == (req.SystemKey == "") {
		writeError(w, http.StatusUnprocessableEntity, "exactly one of system and system_key must be set")
		return
	}
	if len(req.Deltas) == 0 {
		writeError(w, http.StatusUnprocessableEntity, "what-if names no deltas")
		return
	}
	if len(req.Deltas) > s.cfg.MaxWhatIfDeltas {
		writeError(w, http.StatusUnprocessableEntity, "chain of %d deltas exceeds the cap of %d", len(req.Deltas), s.cfg.MaxWhatIfDeltas)
		return
	}
	m, err := core.ParseMethod(req.Method)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	opt := req.Options.toCore(m)

	// One admission slot covers the whole chain.
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

	// Resolve the base: a warm engine (by reference or built on first
	// sight) whose immutable interference sets seed the chain's engine.
	var eng *core.Engine
	var doc traffic.Document
	if req.SystemKey != "" {
		e, ok := s.engines.Get(req.SystemKey)
		if !ok || e == nil {
			writeError(w, http.StatusNotFound, "system_key %q is not in the warm-engine cache; resend the system inline", req.SystemKey)
			return
		}
		eng = e
		doc = e.System().ToDocument()
	} else {
		doc = *req.System
		e, err := s.engine(doc, canon.SystemKey(doc))
		if err != nil {
			code, status := classifyError(err)
			writeError(w, status, "%s", errorMessage("whatif step", -1, code, err))
			return
		}
		eng = e
	}
	inc := core.NewIncrementalWithSets(eng.System(), eng.Sets())

	resp := &WhatIfResponse{BaseKey: canon.Key(doc, opt), Steps: make([]WhatIfStep, 0, len(req.Deltas))}
	prevKey := resp.BaseKey
	for i, spec := range req.Deltas {
		step := WhatIfStep{Delta: spec}
		d, err := spec.toCore()
		if err == nil {
			err = inc.Apply(d)
		}
		if err != nil {
			// The delta itself is bad (or applying it faulted): the chain
			// stops here with the failure recorded in this step.
			code, _ := classifyError(err)
			step.Error, step.Code = errorMessage("whatif step", i, code, err), code
			resp.Steps = append(resp.Steps, step)
			resp.Failed = 1
			break
		}
		prevKey = canon.DeltaKey(prevKey, d)

		if hit, ok := s.lookup(prevKey); ok {
			step.AnalyzeResponse = hit
			resp.Steps = append(resp.Steps, step)
			resp.CacheHits++
			continue
		}
		s.met.recordCache(false)

		t0 := time.Now()
		res, err := inc.Analyze(ctx, opt)
		if err != nil {
			code, _ := classifyError(err)
			if code == errCodePanic {
				s.met.recordItemPanic()
			}
			step.Error, step.Code = errorMessage("whatif step", i, code, err), code
			resp.Steps = append(resp.Steps, step)
			resp.Failed = 1
			break
		}
		out := newResponse(inc.System(), res, opt.Method, prevKey, time.Since(t0))
		s.results.Put(prevKey, out)
		step.AnalyzeResponse = out
		resp.Steps = append(resp.Steps, step)
	}

	stats := inc.Stats()
	resp.FullRuns = stats.FullRuns
	resp.PartialRuns = stats.PartialRuns
	resp.FlowsReanalyzed = stats.FlowsReanalyzed
	resp.FlowsSkipped = stats.FlowsSkipped
	resp.WarmAccepted = stats.WarmAccepted

	// Chain-level 504 only when the deadline expired before any step
	// produced a result; partial success is a 200 with the failing step
	// in place, like a batch.
	if len(resp.Steps) == resp.Failed && ctx.Err() != nil {
		writeError(w, http.StatusGatewayTimeout, "what-if aborted, no step completed: %v", ctx.Err())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

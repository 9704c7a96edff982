package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"wormnoc/internal/faultinject"
	"wormnoc/internal/traffic"
)

// faultMetrics is the "faults" object of GET /metrics, used to
// reconcile the counters against the injector's fired counts.
type faultMetrics struct {
	Faults struct {
		Panics     int64 `json:"panics"`
		ItemPanics int64 `json:"item_panics"`
	} `json:"faults"`
}

// The headline chaos test: a batch of 32 distinct systems with panics
// injected into 8 of them must come back 200 with 24 correct results
// and 8 typed per-item errors, the server must keep serving afterwards,
// and the /metrics fault counters must reconcile exactly with the
// injector's fired counts.
func TestChaosBatchPartialSuccess(t *testing.T) {
	panicIdx := map[int]bool{1: true, 5: true, 9: true, 13: true, 17: true, 21: true, 25: true, 29: true}
	var keys []string
	for i := range panicIdx {
		keys = append(keys, strconv.Itoa(i))
	}
	in := faultinject.New().Add(faultinject.Fault{
		Site: faultinject.SiteServeBatchItem,
		Keys: keys,
	})
	faultinject.Enable(in)
	defer faultinject.Disable()

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 32
	systems := make([]traffic.Document, n)
	for i := range systems {
		systems[i] = didacticDoc()
		systems[i].Mesh.BufDepth = i + 1 // 32 distinct systems
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Systems: systems, Method: "XLWX"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (want 200 despite 8 injected panics): %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != n {
		t.Fatalf("got %d results, want %d", len(out.Results), n)
	}
	for i, item := range out.Results {
		if panicIdx[i] {
			if item.AnalyzeResponse != nil {
				t.Fatalf("item %d: panic was injected but a result came back: %+v", i, item)
			}
			if item.Code != errCodePanic {
				t.Fatalf("item %d: code %q, want %q (error %q)", i, item.Code, errCodePanic, item.Error)
			}
			// Panic values are redacted on the wire (logged server-side):
			// the client sees an incident reference, never the raw value.
			if strings.Contains(item.Error, "injected panic") {
				t.Fatalf("item %d: error %q leaks the raw panic value", i, item.Error)
			}
			if !strings.Contains(item.Error, "internal error (incident ") {
				t.Fatalf("item %d: error %q is not the redacted incident form", i, item.Error)
			}
			continue
		}
		if item.AnalyzeResponse == nil || item.Error != "" || item.Code != "" {
			t.Fatalf("item %d: healthy system failed: %+v", i, item)
		}
		// XLWX is buffer-independent: every system bounds R(τ3) = 460.
		if r := item.Flows[2].R; r != 460 {
			t.Fatalf("item %d: R(τ3) = %d, want 460", i, r)
		}
	}
	if out.Failed != len(panicIdx) {
		t.Fatalf("failed = %d, want %d", out.Failed, len(panicIdx))
	}

	// The metrics counters reconcile exactly with the injector.
	if fired := in.TotalFired(); fired != int64(len(panicIdx)) {
		t.Fatalf("injector fired %d faults, want %d", fired, len(panicIdx))
	}
	var met faultMetrics
	getJSON(t, ts.URL+"/metrics", &met)
	if met.Faults.ItemPanics != in.TotalFired() {
		t.Fatalf("item_panics = %d, want %d (injector fired)", met.Faults.ItemPanics, in.TotalFired())
	}
	if met.Faults.Panics != 0 {
		t.Fatalf("unexpected fault counters: %+v", met.Faults)
	}

	// The server keeps serving after the chaos.
	faultinject.Disable()
	resp, body = postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{System: didacticDoc(), Method: "IBN"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up analyze after chaos: status %d: %s", resp.StatusCode, body)
	}
}

// The analysis is deterministic, so its faults shed nothing: a batch
// whose every item panics — 32 faults in one method, twice what once
// tripped a per-method circuit breaker — leaves that method serving
// analyses, batches and what-if chains, and /healthz plainly healthy.
func TestChaosPanicsDoNotShedMethod(t *testing.T) {
	in := faultinject.New().Add(faultinject.Fault{Site: faultinject.SiteServeBatchItem})
	faultinject.Enable(in)
	defer faultinject.Disable()

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 32
	systems := make([]traffic.Document, n)
	for i := range systems {
		systems[i] = didacticDoc()
		systems[i].Mesh.BufDepth = i + 1
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Systems: systems, Method: "IBN"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poisoned batch: status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Failed != n {
		t.Fatalf("failed = %d, want all %d items", out.Failed, n)
	}
	faultinject.Disable()

	resp, body = postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{System: didacticDoc(), Method: "IBN"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze after %d faults: status %d: %s", n, resp.StatusCode, body)
	}
	healthy := didacticDoc()
	healthy.Mesh.BufDepth = 40
	resp, body = postJSON(t, ts.URL+"/v1/batch", BatchRequest{Systems: []traffic.Document{healthy}, Method: "IBN"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch after %d faults: status %d: %s", n, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 {
		t.Fatalf("healthy batch failed: %s", body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/whatif", WhatIfRequest{System: ptr(didacticDoc()), Method: "IBN", Deltas: whatifChain()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("what-if after %d faults: status %d: %s", n, resp.StatusCode, body)
	}
	var chain WhatIfResponse
	if err := json.Unmarshal(body, &chain); err != nil {
		t.Fatal(err)
	}
	if chain.Failed != 0 {
		t.Fatalf("healthy what-if chain failed: %s", body)
	}

	var health map[string]any
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if len(health) != 1 || health["ok"] != true {
		t.Fatalf("healthz = %v, want {\"ok\": true}", health)
	}
	var met faultMetrics
	getJSON(t, ts.URL+"/metrics", &met)
	if fired := in.TotalFired(); fired != n || met.Faults.ItemPanics != fired {
		t.Fatalf("item_panics = %d, injector fired %d, want both %d", met.Faults.ItemPanics, fired, n)
	}
}

// A panic classified out of the analysis path (here: injected into the
// engine's fixed point) turns into a 500 with an incident ID — and the
// server, not having died, serves the same request fine once the fault
// is gone.
func TestChaosAnalyzePanicBecomes500WithIncident(t *testing.T) {
	faultinject.Enable(faultinject.New().Add(faultinject.Fault{Site: faultinject.SiteCoreFixedPoint}))
	defer faultinject.Disable()

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{System: didacticDoc(), Method: "IBN"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d (want 500): %s", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("500 body is not JSON: %s", body)
	}
	if e.IncidentID == "" || !strings.Contains(e.Error, e.IncidentID) {
		t.Fatalf("500 carries no incident ID: %+v", e)
	}
	if !strings.Contains(e.Error, "internal error") {
		t.Fatalf("error %q does not mark itself internal", e.Error)
	}
	var met faultMetrics
	getJSON(t, ts.URL+"/metrics", &met)
	if met.Faults.Panics != 1 {
		t.Fatalf("panics counter = %d, want 1", met.Faults.Panics)
	}

	faultinject.Disable()
	resp, body = postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{System: didacticDoc(), Method: "IBN"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after recovered panic: status %d: %s", resp.StatusCode, body)
	}
}

// A panic escaping a handler entirely (here: injected into the engine
// build, outside the per-item boundaries) is caught by the recovery
// middleware: 500 + incident ID, process alive.
func TestChaosWrapMiddlewareRecoversHandlerPanic(t *testing.T) {
	faultinject.Enable(faultinject.New().Add(faultinject.Fault{Site: faultinject.SiteServeEngineBuild}))
	defer faultinject.Disable()

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{System: didacticDoc(), Method: "IBN"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d (want 500): %s", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("500 body is not JSON: %s", body)
	}
	if e.IncidentID == "" {
		t.Fatalf("500 carries no incident ID: %+v", e)
	}

	faultinject.Disable()
	resp, _ = postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{System: didacticDoc(), Method: "IBN"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server dead after handler panic: status %d", resp.StatusCode)
	}
}

// Regression: a nil engine in the pool (only reachable through a bug in
// the build path) must neither break the eviction callback nor the
// /metrics telemetry walk.
func TestNilEngineEvictionGuard(t *testing.T) {
	srv := New(Config{EngineCacheSize: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.engines.Put("deliberately-nil", nil)
	// liveTelemetry walks the pool and must skip the nil entry.
	resp := getJSON(t, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics with a nil pooled engine: status %d", resp.StatusCode)
	}
	// Evicting the nil entry exercises the onEvict guard.
	srv.engines.Put("other", nil)
	if srv.engines.Len() != 1 {
		t.Fatalf("pool len = %d, want 1", srv.engines.Len())
	}
	// The server still analyses (evicting "other", again nil).
	resp2, body := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{System: didacticDoc(), Method: "IBN"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("analyze after nil evictions: status %d: %s", resp2.StatusCode, body)
	}
}

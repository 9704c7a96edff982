package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wormnoc/internal/canon"
	"wormnoc/internal/core"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func didacticDoc() traffic.Document {
	return workload.Didactic(2).ToDocument()
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// slowDoc builds a two-flow system whose lower-priority flow sits at the
// fixed-point convergence boundary (the direct interferer fully loads
// the shared link), so its iteration walks to the huge deadline in
// ~C2-sized steps: millions of iterations, ideal for exercising
// deadlines and admission control deterministically.
func slowDoc() traffic.Document {
	return traffic.Document{
		Mesh: traffic.MeshSpec{Width: 2, Height: 1, BufDepth: 2, LinkLatency: 1, RouteLatency: 0},
		Flows: []traffic.FlowSpec{
			{Name: "hog", Priority: 1, Period: 100, Deadline: 100, Length: 98, Src: 0, Dst: 1},
			{Name: "victim", Priority: 2, Period: 1 << 40, Deadline: 1 << 40, Length: 58, Src: 0, Dst: 1},
		},
	}
}

func TestAnalyzeDidactic(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
		System: didacticDoc(), Method: "IBN",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Schedulable || out.Cached || out.Method != "IBN" {
		t.Fatalf("unexpected response: %+v", out)
	}
	// Table II, IBN at buf=2: R(τ3) = 348.
	if len(out.Flows) != 3 || out.Flows[2].R != 348 || out.Flows[2].Status != "schedulable" {
		t.Fatalf("didactic bounds wrong: %+v", out.Flows)
	}
	// Both keys are the canonical hashes of the request, computed once.
	doc := didacticDoc()
	if want := canon.Key(doc, core.Options{Method: core.IBN}); out.Key != want {
		t.Fatalf("key = %q, want canon.Key %q", out.Key, want)
	}
	if want := canon.SystemKey(doc); out.SystemKey != want {
		t.Fatalf("system_key = %q, want canon.SystemKey %q", out.SystemKey, want)
	}
}

// An int64-wrapping fixed-point window must not come back schedulable:
// τj's jitter sits five cycles under MaxInt64, and τi (D = 50) can wait
// behind a whole 102-cycle τj packet.
func TestAnalyzeOverflowNotSchedulable(t *testing.T) {
	ts := newTestServer(t, Config{})
	doc := traffic.Document{
		Mesh: traffic.MeshSpec{Width: 2, Height: 1, BufDepth: 2, LinkLatency: 1, RouteLatency: 0},
		Flows: []traffic.FlowSpec{
			{Name: "j", Priority: 1, Period: math.MaxInt64, Deadline: math.MaxInt64, Jitter: math.MaxInt64 - 5, Length: 100, Src: 0, Dst: 1},
			{Name: "i", Priority: 2, Period: math.MaxInt64, Deadline: 50, Length: 10, Src: 0, Dst: 1},
		},
	}
	resp, body := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{System: doc, Method: "IBN"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Schedulable || len(out.Flows) != 2 || out.Flows[1].Status != "diverged" {
		t.Fatalf("overflowing system answered %s", body)
	}
}

// The acceptance criterion: identical back-to-back requests hit the
// cache, visible both in the response and in the /metrics hit counter.
func TestAnalyzeCacheHit(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := AnalyzeRequest{System: didacticDoc(), Method: "IBN", Options: &RequestOptions{BufDepth: 2}}

	_, first := postJSON(t, ts.URL+"/v1/analyze", req)
	resp, second := postJSON(t, ts.URL+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, second)
	}
	var out1, out2 AnalyzeResponse
	if err := json.Unmarshal(first, &out1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &out2); err != nil {
		t.Fatal(err)
	}
	if out1.Cached {
		t.Fatal("first request claims to be cached")
	}
	if !out2.Cached {
		t.Fatal("identical back-to-back request missed the cache")
	}
	if out1.Key != out2.Key {
		t.Fatalf("keys differ: %s vs %s", out1.Key, out2.Key)
	}
	if out1.Flows[2].R != out2.Flows[2].R {
		t.Fatal("cached result differs from computed result")
	}

	var met struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	getJSON(t, ts.URL+"/metrics", &met)
	if met.Cache.Hits != 1 || met.Cache.Misses != 1 {
		t.Fatalf("metrics cache counters: hits=%d misses=%d, want 1/1", met.Cache.Hits, met.Cache.Misses)
	}
}

// Equivalent options (formatting, defaulted fields) map to one cache
// entry via the canonical key.
func TestCacheKeyCanonicalisation(t *testing.T) {
	ts := newTestServer(t, Config{})
	_, b1 := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{System: didacticDoc(), Method: "ibn"})
	_, b2 := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
		System: didacticDoc(), Method: "IBN", Options: &RequestOptions{MaxIterations: 1 << 20},
	})
	var out1, out2 AnalyzeResponse
	if err := json.Unmarshal(b1, &out1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b2, &out2); err != nil {
		t.Fatal(err)
	}
	if out1.Key != out2.Key || !out2.Cached {
		t.Fatalf("equivalent requests not deduplicated: %s vs %s (cached=%v)", out1.Key, out2.Key, out2.Cached)
	}
}

// The acceptance criterion: a 1ms deadline aborts the fixed-point
// iteration promptly with a context-cancellation error instead of
// running it to completion.
func TestAnalyzeDeadline(t *testing.T) {
	ts := newTestServer(t, Config{})
	t0 := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
		System:    slowDoc(),
		Method:    "SB",
		Options:   &RequestOptions{MaxIterations: 1 << 30},
		TimeoutMs: 1,
	})
	elapsed := time.Since(t0)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (want 504): %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "context deadline exceeded") {
		t.Fatalf("error is not a context cancellation: %s", body)
	}
	// The uncancelled run takes tens of milliseconds to seconds; "promptly"
	// means nowhere near that.
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, not prompt", elapsed)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"malformed json": {`{"system": `, http.StatusBadRequest},
		"unknown field":  {`{"system": {}, "method": "IBN", "wat": 1}`, http.StatusBadRequest},
		"unknown method": {`{"system": {"mesh": {"width": 2, "height": 1, "buf": 1, "linkl": 1, "routl": 0}, "flows": [{"priority": 1, "period": 10, "deadline": 10, "length": 1, "src": 0, "dst": 1}]}, "method": "FOO"}`, http.StatusUnprocessableEntity},
		"invalid system": {`{"system": {"mesh": {"width": 0, "height": 0, "buf": 1, "linkl": 1, "routl": 0}, "flows": [{"priority": 1, "period": 10, "deadline": 10, "length": 1, "src": 0, "dst": 1}]}, "method": "IBN"}`, http.StatusUnprocessableEntity},
		"empty batch":    {`{"systems": [], "method": "IBN"}`, http.StatusUnprocessableEntity},
	} {
		url := ts.URL + "/v1/analyze"
		if strings.Contains(tc.body, "systems") {
			url = ts.URL + "/v1/batch"
		}
		resp, err := http.Post(url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: non-JSON error body: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (error %q)", name, resp.StatusCode, tc.want, e.Error)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error message", name)
		}
	}
}

// Saturated admission control sheds with 429 + Retry-After instead of
// queueing. The semaphore is filled directly to keep the test
// deterministic.
func TestAdmissionControlSheds(t *testing.T) {
	srv := New(Config{MaxInFlight: 2})
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{System: didacticDoc(), Method: "IBN"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (want 429): %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var met struct {
		Shed int64 `json:"shed"`
	}
	getJSON(t, ts.URL+"/metrics", &met)
	if met.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", met.Shed)
	}

	// Cache hits must still be served while saturated: free a slot, warm
	// the cache, re-fill, and re-request.
	<-srv.sem
	resp, _ = postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{System: didacticDoc(), Method: "IBN"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warming request failed with %d", resp.StatusCode)
	}
	srv.sem <- struct{}{}
	resp, body = postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{System: didacticDoc(), Method: "IBN"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache hit was shed: status %d: %s", resp.StatusCode, body)
	}
	var out AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Fatal("expected a cached response while saturated")
	}
}

func TestBatch(t *testing.T) {
	ts := newTestServer(t, Config{})
	// Warm the cache with the didactic system.
	postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{System: didacticDoc(), Method: "XLWX"})

	other := didacticDoc()
	other.Mesh.BufDepth = 10
	bad := didacticDoc()
	bad.Flows[0].Deadline = bad.Flows[0].Period + 1 // invalid: D > T
	resp, body := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Systems: []traffic.Document{didacticDoc(), other, bad},
		Method:  "XLWX",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	if out.Results[0].AnalyzeResponse == nil || !out.Results[0].Cached {
		t.Fatalf("warmed system not served from cache: %+v", out.Results[0])
	}
	if out.Results[1].AnalyzeResponse == nil || out.Results[1].Error != "" {
		t.Fatalf("valid system failed: %+v", out.Results[1])
	}
	// XLWX ignores buffer depth, but the system differs, so the bounds
	// must match the didactic XLWX values anyway (R(τ3) = 460).
	if r := out.Results[1].Flows[2].R; r != 460 {
		t.Fatalf("batch XLWX R(τ3) = %d, want 460", r)
	}
	if got, want := out.Results[1].Key, canon.Key(other, core.Options{Method: core.XLWX}); got != want {
		t.Fatalf("batch item key = %q, want canon.Key %q", got, want)
	}
	if got, want := out.Results[1].SystemKey, canon.SystemKey(other); got != want {
		t.Fatalf("batch item system_key = %q, want canon.SystemKey %q", got, want)
	}
	if out.Results[2].AnalyzeResponse != nil || out.Results[2].Error == "" {
		t.Fatalf("invalid system did not error: %+v", out.Results[2])
	}
	if out.CacheHits != 1 {
		t.Fatalf("cache_hits = %d, want 1", out.CacheHits)
	}
}

func TestMethodsEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	var out []MethodInfo
	resp := getJSON(t, ts.URL+"/v1/methods", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	byName := map[string]MethodInfo{}
	for _, m := range out {
		byName[m.Name] = m
	}
	for _, want := range []string{"SB", "SLA", "XLWX", "IBN"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("method %s missing from %v", want, out)
		}
	}
	if byName["SB"].Safe || !byName["IBN"].Safe {
		t.Fatalf("safety flags wrong: %v", out)
	}
	for _, m := range out {
		if m.Description == "" {
			t.Errorf("method %s has no description", m.Name)
		}
	}
}

func TestMetricsShape(t *testing.T) {
	ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{System: didacticDoc(), Method: "IBN"})
	postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{System: didacticDoc(), Method: "IBN"})

	var met struct {
		Requests  map[string]int64 `json:"requests"`
		Responses map[string]int64 `json:"responses"`
		Latency   struct {
			Count int64 `json:"count"`
			P50   int64 `json:"p50"`
			P99   int64 `json:"p99"`
		} `json:"latency_us"`
		Telemetry struct {
			Runs       int64 `json:"runs"`
			Iterations int64 `json:"iterations"`
		} `json:"telemetry"`
		Engines struct {
			Entries int `json:"entries"`
		} `json:"engines"`
	}
	getJSON(t, ts.URL+"/metrics", &met)
	if met.Requests["analyze"] != 2 {
		t.Fatalf("analyze request counter = %d, want 2", met.Requests["analyze"])
	}
	if met.Responses["200"] != 2 {
		t.Fatalf("200 counter = %d, want 2: %v", met.Responses["200"], met.Responses)
	}
	if met.Latency.Count != 2 || met.Latency.P99 < met.Latency.P50 {
		t.Fatalf("latency summary wrong: %+v", met.Latency)
	}
	if met.Telemetry.Runs != 1 || met.Telemetry.Iterations == 0 {
		t.Fatalf("engine telemetry not aggregated: %+v", met.Telemetry)
	}
	if met.Engines.Entries != 1 {
		t.Fatalf("engine pool entries = %d, want 1", met.Engines.Entries)
	}
}

// Engine-pool eviction must not lose telemetry: the retired aggregate
// keeps counting.
func TestEngineEvictionRetainsTelemetry(t *testing.T) {
	ts := newTestServer(t, Config{EngineCacheSize: 1})
	a := didacticDoc()
	b := didacticDoc()
	b.Mesh.BufDepth = 10
	postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{System: a, Method: "IBN"})
	postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{System: b, Method: "IBN"}) // evicts a's engine

	var met struct {
		Telemetry struct {
			Runs int64 `json:"runs"`
		} `json:"telemetry"`
		Engines struct {
			Entries int `json:"entries"`
		} `json:"engines"`
	}
	getJSON(t, ts.URL+"/metrics", &met)
	if met.Engines.Entries != 1 {
		t.Fatalf("engine pool entries = %d, want 1", met.Engines.Entries)
	}
	if met.Telemetry.Runs != 2 {
		t.Fatalf("telemetry runs = %d after eviction, want 2", met.Telemetry.Runs)
	}
}

func TestGracefulShutdown(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{System: didacticDoc(), Method: "IBN"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d after shutdown (want 503): %s", resp.StatusCode, body)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/analyze returned %d, want 405", resp.StatusCode)
	}
}

func TestLRUCache(t *testing.T) {
	var evicted []string
	c := newLRU[int](2, func(k string, v int) { evicted = append(evicted, fmt.Sprintf("%s=%d", k, v)) })
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", 3) // evicts b (a was refreshed by Get)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if len(evicted) != 1 || evicted[0] != "b=2" {
		t.Fatalf("eviction callback saw %v, want [b=2]", evicted)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	vals := c.Values()
	if len(vals) != 2 {
		t.Fatalf("values = %v", vals)
	}
}

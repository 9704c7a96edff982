package serve

import (
	"sort"
	"sync"
	"time"

	"wormnoc/internal/core"
)

// latencyWindow is how many recent analyze/batch latencies the
// percentile estimator keeps. Power of two, used as a ring buffer.
const latencyWindow = 1024

// metrics holds the server's observability counters, exposed as JSON at
// GET /metrics. All fields are guarded by mu; the handlers update them
// through the record* methods, which are safe for concurrent use.
type metrics struct {
	mu        sync.Mutex
	start     time.Time
	requests  map[string]int64 // per endpoint
	responses map[int]int64    // per HTTP status code
	shed      int64            // 429s from admission control
	hits      int64            // result-cache hits
	misses    int64            // result-cache misses
	// lat is a ring of the most recent analyze/batch latencies (µs).
	lat  [latencyWindow]int64
	latN int64 // total recorded, ring index = latN % latencyWindow
	// Fault-containment counters: request-level recovered panics (500 +
	// incident) and per-batch-item (or what-if step) recovered panics.
	// Chaos tests reconcile these exactly against the fault injector's
	// fired counts.
	panics     int64
	itemPanics int64
	// retired accumulates the telemetry of evicted engines so the
	// aggregate at /metrics never shrinks when the engine pool rotates.
	retired core.Telemetry
}

func newMetrics() *metrics {
	return &metrics{
		start:     time.Now(),
		requests:  make(map[string]int64),
		responses: make(map[int]int64),
	}
}

func (m *metrics) recordRequest(endpoint string, status int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[endpoint]++
	m.responses[status]++
}

func (m *metrics) recordLatency(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lat[m.latN%latencyWindow] = d.Microseconds()
	m.latN++
}

func (m *metrics) recordShed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shed++
}

func (m *metrics) recordCache(hit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if hit {
		m.hits++
	} else {
		m.misses++
	}
}

func (m *metrics) recordPanic() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.panics++
}

func (m *metrics) recordItemPanic() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.itemPanics++
}

func (m *metrics) retire(tel core.Telemetry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retired.Add(tel)
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted,
// using the nearest-rank method.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// snapshot renders the counters into the wire form of GET /metrics.
// liveTel is the summed telemetry of the engines currently in the pool;
// the retired aggregate is added so evictions never lose counters.
func (m *metrics) snapshot(inflight, maxInflight, cacheLen, cacheCap, engineLen, engineCap int, liveTel core.Telemetry) map[string]any {
	m.mu.Lock()
	defer m.mu.Unlock()

	n := m.latN
	if n > latencyWindow {
		n = latencyWindow
	}
	lat := make([]int64, n)
	copy(lat, m.lat[:n])
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })

	hitRatio := 0.0
	if m.hits+m.misses > 0 {
		hitRatio = float64(m.hits) / float64(m.hits+m.misses)
	}
	requests := make(map[string]int64, len(m.requests))
	for k, v := range m.requests {
		requests[k] = v
	}
	responses := make(map[int]int64, len(m.responses))
	for k, v := range m.responses {
		responses[k] = v
	}
	tel := m.retired
	tel.Add(liveTel)

	var maxLat int64
	if len(lat) > 0 {
		maxLat = lat[len(lat)-1]
	}
	return map[string]any{
		"uptime_s":     int64(time.Since(m.start).Seconds()),
		"inflight":     inflight,
		"max_inflight": maxInflight,
		"requests":     requests,
		"responses":    responses,
		"shed":         m.shed,
		"cache": map[string]any{
			"hits":      m.hits,
			"misses":    m.misses,
			"hit_ratio": hitRatio,
			"entries":   cacheLen,
			"capacity":  cacheCap,
		},
		"engines": map[string]any{
			"entries":  engineLen,
			"capacity": engineCap,
		},
		"faults": map[string]any{
			"panics":      m.panics,
			"item_panics": m.itemPanics,
		},
		"latency_us": map[string]any{
			"count": m.latN,
			"p50":   percentile(lat, 50),
			"p90":   percentile(lat, 90),
			"p99":   percentile(lat, 99),
			"max":   maxLat,
		},
		"telemetry": map[string]any{
			"runs":                 tel.Runs,
			"flows":                tel.Flows,
			"iterations":           tel.Iterations,
			"memo_hits":            tel.MemoHits,
			"memo_misses":          tel.MemoMisses,
			"max_downstream_depth": tel.MaxDownstreamDepth,
			"flow_nanos":           tel.FlowNanos,
			"max_flow_nanos":       tel.MaxFlowNanos,
		},
	}
}

package serve

import (
	"sort"
	"sync"
	"time"
)

// breakerState is the classic three-state circuit-breaker lifecycle.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a per-method error-budget circuit breaker. Each analysis
// method (SB, SLA, XLWX, IBN) carries its own sliding window of recent
// run outcomes; when the count of *internal* faults (recovered panics,
// core.InternalError, injected transient faults — never client errors
// or deadline expiries) in the window reaches the threshold, the method
// trips open and its requests are shed with 503 until the cooldown
// expires. A tripped method does not affect its siblings: XLWX keeps
// serving while IBN is open. After the cooldown one probe request is
// let through (half-open); success closes the breaker and clears the
// window, another internal fault re-opens it for a fresh cooldown.
// A probe that finishes without producing a run outcome — shed at
// admission, served entirely from the result cache — must hand its
// slot back via release, and a probe silent for a whole further
// cooldown forfeits the slot to the next request, so the breaker can
// never wedge in half-open.
//
// /healthz reports the open methods as a degraded-readiness state.
type breaker struct {
	mu        sync.Mutex
	window    int
	threshold int
	cooldown  time.Duration
	// now is replaceable for tests.
	now     func() time.Time
	methods map[string]*methodBreaker
	trips   int64
	shed    int64
}

type methodBreaker struct {
	// ring holds the last `window` outcomes (true = internal fault).
	ring      []bool
	idx, n    int
	fails     int
	state     breakerState
	openUntil time.Time
	// probing guards the half-open state: only one request probes.
	// probeStart is when that probe was admitted; a probe that reports
	// nothing for a whole cooldown forfeits the slot (see allow).
	probing    bool
	probeStart time.Time
}

func newBreaker(window, threshold int, cooldown time.Duration) *breaker {
	return &breaker{
		window:    window,
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		methods:   make(map[string]*methodBreaker),
	}
}

func (b *breaker) method(name string) *methodBreaker {
	m, ok := b.methods[name]
	if !ok {
		m = &methodBreaker{ring: make([]bool, b.window)}
		b.methods[name] = m
	}
	return m
}

// allow reports whether a request for the method may run. Shed requests
// (false) are counted.
func (b *breaker) allow(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.method(name)
	switch m.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Before(m.openUntil) {
			b.shed++
			return false
		}
		m.state = breakerHalfOpen
		m.probing = true
		m.probeStart = b.now()
		return true
	default: // half-open
		if m.probing {
			// Backstop against a leaked slot: a probe that has reported
			// nothing for a whole cooldown (its request died outside the
			// record/release paths) forfeits the slot to this request
			// instead of wedging the method in half-open.
			if b.now().Sub(m.probeStart) >= b.cooldown {
				m.probeStart = b.now()
				return true
			}
			b.shed++
			return false
		}
		m.probing = true
		m.probeStart = b.now()
		return true
	}
}

// release hands back a half-open probe slot without recording a run
// outcome. Callers that passed allow but finish without reaching
// record — shed at admission, or served entirely from the result
// cache — must call it, or the next probe would wait out the takeover
// timeout in allow.
func (b *breaker) release(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if m, ok := b.methods[name]; ok && m.state == breakerHalfOpen {
		m.probing = false
	}
}

// record feeds one run outcome into the method's window. internalFault
// marks server-side faults only; client errors and timeouts count as
// successes for error-budget purposes.
func (b *breaker) record(name string, internalFault bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.method(name)
	switch m.state {
	case breakerHalfOpen:
		m.probing = false
		if internalFault {
			m.state = breakerOpen
			m.openUntil = b.now().Add(b.cooldown)
			b.trips++
			return
		}
		// Probe succeeded: close with a clean window.
		m.state = breakerClosed
		for i := range m.ring {
			m.ring[i] = false
		}
		m.idx, m.n, m.fails = 0, 0, 0
		return
	case breakerOpen:
		// A straggler from before the trip; the window is moot.
		return
	}
	if m.n == len(m.ring) {
		if m.ring[m.idx] {
			m.fails--
		}
	} else {
		m.n++
	}
	m.ring[m.idx] = internalFault
	if internalFault {
		m.fails++
	}
	m.idx = (m.idx + 1) % len(m.ring)
	if m.fails >= b.threshold {
		m.state = breakerOpen
		m.openUntil = b.now().Add(b.cooldown)
		b.trips++
	}
}

// openMethods returns the names of methods currently not closed
// (open or probing half-open), sorted.
func (b *breaker) openMethods() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for name, m := range b.methods {
		if m.state != breakerClosed {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// counters returns the cumulative trip and shed counts.
func (b *breaker) counters() (trips, shed int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips, b.shed
}

// Package faultinject provides deterministic, seed-driven fault
// injection for chaos testing the analysis service end to end.
//
// Production code is instrumented at a small set of named sites (the
// engine fixed point, the serving layer's caches and batch fan-out, the
// worker pool). Each site calls Fire, which is a single atomic load —
// effectively a no-op — unless a test has installed an Injector with
// Enable. An installed injector matches the site (and optionally the
// site-specific key) against its configured faults and either returns a
// typed error or panics, letting the resilience machinery above (panic
// recovery, per-item batch isolation, retries, circuit breakers) be
// exercised on demand and reconciled exactly against the injector's
// fired counters.
//
// Determinism: a fault with Prob in (0, 1) decides each hit by hashing
// (seed, site, hit ordinal), so a given seed always fires the same hit
// ordinals at a site. Under concurrent callers the *assignment* of
// ordinals to callers depends on scheduling; tests that must know
// exactly which logical operations fail should select by Keys (every
// instrumented site passes a stable key such as the task index or flow
// rank) rather than by probability.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Site names one instrumented injection point.
type Site string

// The instrumented sites. Keys passed to Fire at each site:
//
//	SiteParallelTask:     the task index ("0", "1", …)
//	SiteCoreFixedPoint:   the flow index being analysed ("0", "1", …)
//	SiteServeCacheGet:    the canonical request key (hex)
//	SiteServeCachePut:    the canonical request key (hex)
//	SiteServeBatchItem:   the batch item index ("0", "1", …)
//	SiteServeEngineBuild: the canonical system key (hex)
const (
	SiteParallelTask     Site = "parallel.task"
	SiteCoreFixedPoint   Site = "core.fixedpoint"
	SiteServeCacheGet    Site = "serve.cache.get"
	SiteServeCachePut    Site = "serve.cache.put"
	SiteServeBatchItem   Site = "serve.batch.item"
	SiteServeEngineBuild Site = "serve.engine.build"
)

// Kind selects what a matched fault does.
type Kind int

const (
	// KindError makes Fire return the fault's Err (an *InjectedError
	// when Err is nil). InjectedError is transient — the serving layer's
	// retry policy will retry it.
	KindError Kind = iota
	// KindPanic makes Fire panic, exercising the recovery boundaries.
	KindPanic
)

// String returns the kind's name ("error", "panic").
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault configures one injected failure mode at one site.
type Fault struct {
	// Site selects the injection point.
	Site Site
	// Kind selects the failure mode.
	Kind Kind
	// Keys, when non-empty, restricts the fault to hits whose key is in
	// the set. Empty matches every hit at the site.
	Keys []string
	// Prob fires the fault on a deterministic, seed-derived subset of
	// matched hits when in (0, 1). Outside that range every matched hit
	// fires.
	Prob float64
	// Times caps how often the fault fires (0 = unlimited).
	Times int
	// Err overrides the returned error for KindError (default: a
	// transient *InjectedError naming the site and key).
	Err error
}

// InjectedError is the default error returned by a KindError fault. It
// reports itself as transient, so bounded retry policies will retry it.
type InjectedError struct {
	Site Site
	Key  string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected error at %s[%s]", e.Site, e.Key)
}

// Transient marks the error as retryable.
func (e *InjectedError) Transient() bool { return true }

// faultState is one configured fault plus its live counters.
type faultState struct {
	Fault
	keys  map[string]struct{} // nil = match all
	hits  int64               // matched hits (for the Prob hash)
	fired int64
}

// Injector holds an enabled fault plan and its fired counters. Safe for
// concurrent use.
type Injector struct {
	seed   uint64
	mu     sync.Mutex
	faults []*faultState
}

// New returns an empty injector whose probabilistic decisions derive
// from seed.
func New(seed int64) *Injector {
	return &Injector{seed: uint64(seed)}
}

// Add registers a fault. Not safe to call while the injector is
// enabled.
func (in *Injector) Add(f Fault) *Injector {
	st := &faultState{Fault: f}
	if len(f.Keys) > 0 {
		st.keys = make(map[string]struct{}, len(f.Keys))
		for _, k := range f.Keys {
			st.keys[k] = struct{}{}
		}
	}
	in.faults = append(in.faults, st)
	return in
}

// Fired returns how many faults fired per site, across all kinds.
func (in *Injector) Fired() map[Site]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Site]int64)
	for _, f := range in.faults {
		out[f.Site] += f.fired
	}
	return out
}

// TotalFired returns the total number of faults fired.
func (in *Injector) TotalFired() int64 {
	var n int64
	for _, v := range in.Fired() {
		n += v
	}
	return n
}

// active is the globally enabled injector; nil means every Fire call is
// a no-op beyond one atomic load.
var active atomic.Pointer[Injector]

// Enable installs in as the process-wide injector. Tests must pair it
// with Disable (typically via defer or t.Cleanup).
func Enable(in *Injector) { active.Store(in) }

// Disable removes the process-wide injector, restoring no-op behaviour.
func Disable() { active.Store(nil) }

// Enabled reports whether an injector is installed. Call sites use it
// to skip key construction on the hot path.
func Enabled() bool { return active.Load() != nil }

// splitmix64 is the avalanche finaliser used for deterministic per-hit
// probability decisions.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func hashSite(s Site) uint64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Fire evaluates the enabled injector (if any) at site with the given
// key. It returns a non-nil error for KindError faults, panics for
// KindPanic faults, and returns nil otherwise. With no injector enabled
// it costs one atomic load.
func Fire(site Site, key string) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	return in.fire(site, key)
}

func (in *Injector) fire(site Site, key string) error {
	var hit *faultState
	in.mu.Lock()
	for _, f := range in.faults {
		if f.Site != site {
			continue
		}
		if f.keys != nil {
			if _, ok := f.keys[key]; !ok {
				continue
			}
		}
		n := f.hits
		f.hits++
		if f.Prob > 0 && f.Prob < 1 {
			roll := splitmix64(in.seed ^ hashSite(site) ^ uint64(n))
			if float64(roll>>11)/(1<<53) >= f.Prob {
				continue
			}
		}
		if f.Times > 0 && f.fired >= int64(f.Times) {
			continue
		}
		f.fired++
		hit = f
		break
	}
	in.mu.Unlock()
	if hit == nil {
		return nil
	}
	if hit.Kind == KindPanic {
		panic(fmt.Sprintf("faultinject: injected panic at %s[%s]", site, key))
	}
	if hit.Err != nil {
		return hit.Err
	}
	return &InjectedError{Site: site, Key: key}
}

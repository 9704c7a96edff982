// Package faultinject provides deterministic fault injection for chaos
// testing the analysis service end to end.
//
// Production code is instrumented at a small set of named sites (the
// engine fixed point, the serving layer's batch fan-out and engine
// build). Each site calls Fire, which is a single atomic load —
// effectively a no-op — unless a test has installed an Injector with
// Enable. An installed injector matches the site (and optionally the
// site-specific key) against its configured faults and panics on a
// match, letting the containment machinery above (panic recovery,
// per-item batch isolation, the recovery middleware) be exercised on
// demand and reconciled exactly against the injector's fired counters.
//
// Determinism: a fault fires on every matched hit, so a test that
// selects by Keys (every instrumented site passes a stable key such as
// the batch item index or flow rank) knows exactly which logical
// operations fail, whatever the scheduling of concurrent callers.
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
//	SiteCoreFixedPoint:   the flow index being analysed ("0", "1", …)
//	SiteServeBatchItem:   the batch item index ("0", "1", …)
//	SiteServeEngineBuild: the canonical system key (hex)
const (
	SiteCoreFixedPoint   Site = "core.fixedpoint"
	SiteServeBatchItem   Site = "serve.batch.item"
	SiteServeEngineBuild Site = "serve.engine.build"
)

// Fault configures one injected panic at one site.
type Fault struct {
	// Site selects the injection point.
	Site Site
	// Keys, when non-empty, restricts the fault to hits whose key is in
	// the set. Empty matches every hit at the site.
	Keys []string
}

// faultState is one configured fault plus its live counter.
type faultState struct {
	Fault
	keys  map[string]struct{} // nil = match all
	fired int64
}

// Injector holds an enabled fault plan and its fired counters. Safe for
// concurrent use.
type Injector struct {
	mu     sync.Mutex
	faults []*faultState
}

// New returns an empty injector.
func New() *Injector { return &Injector{} }

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

// Fired returns how many faults fired per site.
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

// Fire evaluates the enabled injector (if any) at site with the given
// key and panics when a configured fault matches. With no injector
// enabled it costs one atomic load.
func Fire(site Site, key string) {
	if in := active.Load(); in != nil {
		in.fire(site, key)
	}
}

func (in *Injector) fire(site Site, key string) {
	in.mu.Lock()
	var hit bool
	for _, f := range in.faults {
		if f.Site != site {
			continue
		}
		if f.keys != nil {
			if _, ok := f.keys[key]; !ok {
				continue
			}
		}
		f.fired++
		hit = true
		break
	}
	in.mu.Unlock()
	if hit {
		panic(fmt.Sprintf("faultinject: injected panic at %s[%s]", site, key))
	}
}

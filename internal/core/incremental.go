package core

import (
	"context"
	"errors"
	"fmt"

	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
)

// Incremental is the delta-aware analysis engine: it holds a system, its
// interference sets, and the converged per-flow state of every analysis
// configuration run so far, and re-establishes bounds after typed edits
// (Delta) by re-analysing only the affected-flow frontier instead of the
// whole system.
//
// # Invalidation
//
// A flow's bound R_i is a function of the flows its fixed point reads:
// its direct interferers S^D_i (terms and hit counts) and its indirect
// interferers S^I_i (the upstream/downstream partitions and the I^down
// recursion, whose recursive pairs (k, j) stay inside S^D_i ∪ S^I_i).
// Writing D(i) = S^D_i ∪ S^I_i, the bound depends exactly on the
// transitive closure of i under D. An edit to flow k can therefore only
// perturb flows whose closure contains k — the frontier Apply computes
// by reverse reachability from the edited flows, over the union of the
// dependency graphs before and after the edit (an edit that removes an
// interference edge still changes the flows that used to see it; one
// that adds an edge changes the flows that now do).
//
// One term escapes D: the non-preemptive flit-transfer blocking of
// multi-cycle links counts route links shared with LOWER-priority flows
// (blocking.go). Parameter edits cannot change it, but on platforms with
// linkl > 1 a structural edit additionally seeds the frontier with every
// flow sharing a link with the edited flows, before and after the edit.
//
// # Warm starts
//
// When every edit since a state's last analysis can only enlarge
// interference under that state's method (Delta.grows), the old least
// fixed points are lower bounds on the new ones, so affected flows seed
// their iteration from the previous converged bound (monotone restart;
// see analyzeFlow). Results are still bit-identical to a from-
// scratch run: a warm result is only accepted when it converged
// Schedulable and the cold run provably reaches the same fixed point
// within the iteration cap; every other outcome (deadline misses and
// divergences record path-dependent R values) falls back to a cold
// rerun of that flow.
//
// # Concurrency
//
// Unlike Engine, an Incremental is a stateful single-writer object: it
// must not be used from multiple goroutines concurrently. Fan-out
// callers keep one Incremental per goroutine (or per search) and share
// the immutable base Sets of an Engine through
// NewIncrementalWithSets(eng.System(), eng.Sets()).
//
// # Shared machinery
//
// A from-scratch pass is the Engine's own full pass over a fresh arena;
// the two differ only in where the arena lives (an Engine's pool, or the
// per-configuration state here) and in which flows a pass visits (all,
// or the affected frontier).
type Incremental struct {
	sys    *traffic.System
	sets   *Sets
	states map[stateKey]*incState
	stats  IncStats
}

// IncStats aggregates observability counters of an Incremental's
// lifetime, the incremental analogue of Engine telemetry.
type IncStats struct {
	// Applies counts Apply calls; Edits counts deltas applied.
	Applies, Edits int64
	// FullRuns, PartialRuns and CachedRuns classify Analyze calls: a
	// from-scratch pass over every flow, a frontier-only pass, or a
	// result served without re-analysing anything.
	FullRuns, PartialRuns, CachedRuns int64
	// FlowsReanalyzed and FlowsSkipped count, across partial runs, flows
	// inside and outside the affected frontier.
	FlowsReanalyzed, FlowsSkipped int64
	// WarmAccepted counts warm-started fixed points whose result was
	// accepted; WarmFallbacks counts warm starts redone cold (outcome
	// not Schedulable, or cold convergence within the cap not provable).
	WarmAccepted, WarmFallbacks int64
}

// stateKey identifies one analysis configuration (normalised Options).
type stateKey struct {
	method  Method
	buf     int
	eq7     bool
	noUp    bool
	maxIter int
}

func keyOf(opt Options) stateKey {
	return stateKey{
		method:  opt.Method,
		buf:     opt.BufDepth,
		eq7:     opt.Eq7,
		noUp:    opt.NoUpstreamFallback,
		maxIter: opt.MaxIterations,
	}
}

// incState is the converged state of one analysis configuration plus
// the invalidation accumulated against it since its last analysis.
type incState struct {
	opt Options
	// ar holds the per-flow bounds, statuses and I^down memos of the
	// last analysis; partial passes update it in place.
	ar *arena
	// res is the last published Result. Never mutated in place, so it
	// can be shared with callers; nil when the flow count
	// changed since it was built.
	res *Result
	// affected is the pending frontier: flows to re-analyse.
	affected map[int]bool
	// warm reports that every pending edit grows interference under
	// this configuration, allowing warm-started fixed points.
	warm bool
	// flush reports a pending structural edit: pair ranks moved, so the
	// memo arenas must be discarded wholesale.
	flush bool
	// full forces a from-scratch pass: set initially and when a run
	// aborted mid-pass (cancellation, injected fault) leaving the arena
	// half-updated.
	full bool
}

func (st *incState) reset() {
	st.affected = make(map[int]bool)
	st.warm = true
	st.flush = false
}

// NewIncremental builds the interference sets of the system and returns
// a delta-aware engine over them.
func NewIncremental(sys *traffic.System) *Incremental {
	return NewIncrementalWithSets(sys, BuildSets(sys))
}

// NewIncrementalWithSets is NewIncremental with pre-built sets.
func NewIncrementalWithSets(sys *traffic.System, sets *Sets) *Incremental {
	return &Incremental{sys: sys, sets: sets, states: make(map[stateKey]*incState)}
}

// System returns the current (post-edit) system.
func (inc *Incremental) System() *traffic.System { return inc.sys }

// Sets returns the current interference sets.
func (inc *Incremental) Sets() *Sets { return inc.sets }

// Stats returns a snapshot of the engine's counters.
func (inc *Incremental) Stats() IncStats { return inc.stats }

// Apply applies the edits in order. Each delta is atomic: an invalid
// delta returns an error naming its position with the preceding deltas
// applied and the failing one discarded, leaving the engine consistent.
//
// A panic while applying returns an *InternalError with Op
// "incremental apply". It may have interrupted the per-configuration
// invalidation mid-way, so every cached state is then marked for a
// from-scratch pass — the engine stays usable, it just forfeits its
// incremental advantage once.
func (inc *Incremental) Apply(deltas ...Delta) error {
	err := Guard("incremental apply", func() error {
		for i, d := range deltas {
			if err := inc.applyOne(d); err != nil {
				if len(deltas) > 1 {
					return fmt.Errorf("core: delta %d: %w", i, err)
				}
				return err
			}
			inc.stats.Edits++
		}
		inc.stats.Applies++
		return nil
	})
	var ie *InternalError
	if errors.As(err, &ie) {
		for _, st := range inc.states {
			st.full = true
		}
	}
	return err
}

func (inc *Incremental) applyOne(d Delta) error {
	oldSys, oldSets := inc.sys, inc.sets
	newSys, err := ApplyDelta(oldSys, d)
	if err != nil {
		return err
	}
	var newSets *Sets
	switch d.Kind {
	case DeltaPrioritySwap:
		newSets = oldSets.withPriorities(newSys)
	case DeltaMapping, DeltaAddFlow, DeltaRemoveFlow:
		newSets = BuildSets(newSys)
	default:
		newSets = oldSets.rebind(newSys)
	}

	multiCycle := oldSys.Topology().Config().LinkLatency > 1
	switch d.Kind {
	case DeltaPeriod, DeltaDeadline, DeltaJitter, DeltaLength:
		// The dependency graph is unchanged; the closure over the current
		// sets is the frontier for every state.
		frontier := reverseReach(map[int]bool{d.Flow: true}, oldSys.NumFlows(), oldSets)
		for _, st := range inc.states {
			st.note(frontier, d.grows(oldSys, st.opt), false)
		}
	case DeltaBufDepth:
		// Invisible to buffer-insensitive configurations: their results
		// stand untouched. Sensitive ones see every pair's term change.
		all := allFlows(oldSys.NumFlows())
		for _, st := range inc.states {
			if !bufSensitive(st.opt) {
				continue
			}
			st.note(all, d.grows(oldSys, st.opt), false)
		}
	case DeltaPrioritySwap, DeltaMapping:
		seeds := map[int]bool{d.Flow: true}
		if d.Kind == DeltaPrioritySwap {
			seeds[d.Other] = true
		}
		if multiCycle {
			// The flit-transfer blocking term reads lower-priority route
			// sharers, outside the D-closure: seed them explicitly.
			for k := range seeds {
				linkSharers(seeds, oldSets, k)
				linkSharers(seeds, newSets, k)
			}
		}
		frontier := reverseReach(seeds, oldSys.NumFlows(), oldSets, newSets)
		for _, st := range inc.states {
			st.note(frontier, false, true)
		}
	case DeltaAddFlow:
		// The new flow exists only in the new graph; appending cannot
		// remove dependency edges among the old flows, so the new graph
		// alone is the union.
		k := newSys.NumFlows() - 1
		seeds := map[int]bool{k: true}
		if multiCycle {
			linkSharers(seeds, newSets, k)
		}
		frontier := reverseReach(seeds, newSys.NumFlows(), newSets)
		for _, st := range inc.states {
			st.addFlow()
			st.note(frontier, false, true)
		}
	case DeltaRemoveFlow:
		// Removal only deletes dependency edges, so the old graph alone
		// is the union; the frontier is computed in the old indexing and
		// remapped.
		seeds := map[int]bool{d.Flow: true}
		if multiCycle {
			linkSharers(seeds, oldSets, d.Flow)
		}
		frontier := reverseReach(seeds, oldSys.NumFlows(), oldSets)
		delete(frontier, d.Flow)
		remapped := make(map[int]bool, len(frontier))
		for i := range frontier {
			if i > d.Flow {
				remapped[i-1] = true
			} else {
				remapped[i] = true
			}
		}
		for _, st := range inc.states {
			st.removeFlow(d.Flow)
			st.note(remapped, false, true)
		}
	}
	inc.sys, inc.sets = newSys, newSets
	return nil
}

// note merges a delta's invalidation into the state's pending set.
func (st *incState) note(frontier map[int]bool, grows, structural bool) {
	if st.full {
		return
	}
	for i := range frontier {
		st.affected[i] = true
	}
	st.warm = st.warm && grows
	st.flush = st.flush || structural
}

// addFlow extends the state's arrays for an appended flow (analysed on
// the next pass: the caller puts it in the frontier).
func (st *incState) addFlow() {
	st.res = nil
	if st.full || st.ar == nil {
		return
	}
	st.ar.R = append(st.ar.R, 0)
	st.ar.status = append(st.ar.status, Schedulable)
	st.ar.analyzed = append(st.ar.analyzed, false)
	st.ar.flowNanos = append(st.ar.flowNanos, 0)
}

// removeFlow splices flow k out of the state's arrays, remapping the
// pending frontier is the caller's job.
func (st *incState) removeFlow(k int) {
	st.res = nil
	if st.full || st.ar == nil {
		return
	}
	st.ar.R = append(st.ar.R[:k], st.ar.R[k+1:]...)
	st.ar.status = append(st.ar.status[:k], st.ar.status[k+1:]...)
	st.ar.analyzed = append(st.ar.analyzed[:k], st.ar.analyzed[k+1:]...)
	st.ar.flowNanos = append(st.ar.flowNanos[:k], st.ar.flowNanos[k+1:]...)
	// The pending frontier indices shift too; Apply rebuilds them after
	// calling this, and the stale entries it merged before the removal
	// were remapped there.
	remapped := make(map[int]bool, len(st.affected))
	for i := range st.affected {
		switch {
		case i == k:
		case i > k:
			remapped[i-1] = true
		default:
			remapped[i] = true
		}
	}
	st.affected = remapped
}

func allFlows(n int) map[int]bool {
	all := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		all[i] = true
	}
	return all
}

// linkSharers adds to dst every flow with a non-empty contention domain
// with flow k under ss.
func linkSharers(dst map[int]bool, ss *Sets, k int) {
	if k >= ss.cd.n {
		return
	}
	for i := 0; i < ss.cd.n; i++ {
		if ss.cd.size(k, i) > 0 {
			dst[i] = true
		}
	}
}

// reverseReach returns every flow whose dependency closure intersects
// the seed set: a BFS from the seeds along reversed D-edges (j → i for
// every j ∈ S^D_i ∪ S^I_i) over the union of the given sets. Seeds are
// included. Sets with fewer than n flows (pre-append graphs) contribute
// their edges as-is; indices are assumed stable.
func reverseReach(seeds map[int]bool, n int, setsList ...*Sets) map[int]bool {
	// The reversed edges in CSR form: the flows depending on j are
	// dep[off[j]:off[j+1]]. The edge derivation is shared with
	// (*Sets).Clusters so the frontier and the cluster decomposition can
	// never disagree on what a dependency is.
	off := make([]int32, n+1)
	for _, s := range setsList {
		s.dependencyEdges(func(i, j int) {
			if i < n {
				off[j+1]++
			}
		})
	}
	for j := 0; j < n; j++ {
		off[j+1] += off[j]
	}
	dep := make([]int32, off[n])
	fill := append([]int32(nil), off[:n]...)
	for _, s := range setsList {
		s.dependencyEdges(func(i, j int) {
			if i < n {
				dep[fill[j]] = int32(i)
				fill[j]++
			}
		})
	}
	seen := make([]bool, n)
	queue := make([]int32, 0, n)
	for s := range seeds {
		if s < n && !seen[s] {
			seen[s] = true
			queue = append(queue, int32(s))
		}
	}
	for x := 0; x < len(queue); x++ {
		j := queue[x]
		for _, i := range dep[off[j]:off[j+1]] {
			if !seen[i] {
				seen[i] = true
				queue = append(queue, i)
			}
		}
	}
	reached := make(map[int]bool, len(queue))
	for _, i := range queue {
		reached[int(i)] = true
	}
	return reached
}

// Analyze returns bounds for the current system under opt, re-analysing
// only the flows invalidated since this configuration's previous call.
// The returned Result is immutable and may be retained across further
// edits. A cancellation, injected fault or panic (returned as an
// *InternalError with Op "incremental analyze") aborts with an error and
// leaves the configuration marked for a from-scratch pass on its next
// call, so a half-updated arena is never served.
func (inc *Incremental) Analyze(ctx context.Context, opt Options) (*Result, error) {
	opt, err := prepare(opt)
	if err != nil {
		return nil, err
	}
	key := keyOf(opt)
	st := inc.states[key]
	if st == nil {
		st = &incState{opt: opt, full: true}
		st.reset()
		inc.states[key] = st
	}
	err = Guard("incremental analyze", func() error {
		switch {
		case st.full:
			st.ar = newArena(inc.sys.NumFlows(), inc.sets.numPairs())
			if err := newAnalyzer(ctx, inc.sys, inc.sets, st.opt, st.ar).fullPass(); err != nil {
				return err
			}
			st.full = false
			inc.stats.FullRuns++
		case len(st.affected) > 0:
			if err := inc.runPartial(ctx, st); err != nil {
				return err
			}
		default:
			inc.stats.CachedRuns++
			if st.res == nil {
				st.res = st.ar.result(st.opt.Method)
			}
			return nil
		}
		st.reset()
		st.res = st.ar.result(st.opt.Method)
		return nil
	})
	if err != nil {
		// The arena may be half-updated: force the next call onto the
		// from-scratch path.
		st.full = true
		return nil, err
	}
	return st.res, nil
}

// runPartial re-analyses the affected frontier in priority order,
// warm-starting where every pending edit grows interference.
func (inc *Incremental) runPartial(ctx context.Context, st *incState) error {
	pairs := inc.sets.numPairs()
	switch {
	case len(st.ar.xlwxSet) != pairs:
		st.ar.xlwxVal = make([]noc.Cycles, pairs)
		st.ar.ibnVal = make([]noc.Cycles, pairs)
		st.ar.xlwxSet = make([]bool, pairs)
		st.ar.ibnSet = make([]bool, pairs)
	case st.flush:
		st.ar.clearMemos()
	default:
		// Pair ranks are stable; only entries under affected flows can
		// have changed inputs (a pair (j, i) reads flows in i's closure,
		// and a non-affected i has an unperturbed closure).
		for i := range st.affected {
			for r := inc.sets.pairOffset[i]; r < inc.sets.pairOffset[i+1]; r++ {
				st.ar.xlwxSet[r] = false
				st.ar.ibnSet[r] = false
			}
		}
	}

	a := newAnalyzer(ctx, inc.sys, inc.sets, st.opt, st.ar)
	maxIter := noc.Cycles(st.opt.MaxIterations)
	for _, i := range inc.sys.ByPriority() {
		if !st.affected[i] {
			inc.stats.FlowsSkipped++
			continue
		}
		var seed noc.Cycles
		if st.warm && a.analyzed[i] && a.status[i] == Schedulable {
			seed = a.R[i]
		}
		if err := a.analyzeFlow(i, seed); err != nil {
			return err
		}
		if seed > 0 {
			// Accept the warm fixed point only when a cold run provably
			// reproduces it: it must have converged Schedulable (deadline
			// misses and divergences record path-dependent R values) and
			// lie within MaxIterations of C_i (the cold chain grows by at
			// least one cycle per iteration, so it reaches the same fixed
			// point before the cap). Otherwise rerun cold; memo entries
			// written by the warm attempt are seed-independent (they read
			// only the final bounds of other flows) and stay valid.
			if a.status[i] == Schedulable && a.R[i]-inc.sys.C(i)+2 <= maxIter {
				inc.stats.WarmAccepted++
			} else {
				inc.stats.WarmFallbacks++
				if err := a.analyzeFlow(i, 0); err != nil {
					return err
				}
			}
		}
		inc.stats.FlowsReanalyzed++
	}
	inc.stats.PartialRuns++
	return nil
}

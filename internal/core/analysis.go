package core

import (
	"context"
	"fmt"
	"strconv"

	"wormnoc/internal/faultinject"
	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
)

// Method selects one of the response-time analyses.
type Method int

const (
	// SB is the Shi & Burns 2008 analysis. It predates the discovery of
	// multi-point progressive blocking and produces OPTIMISTIC (unsafe)
	// bounds in MPB scenarios; it is included as the historic baseline the
	// paper plots in Figure 4.
	SB Method = iota
	// XLWX is the Xiong et al. 2017 analysis with the interference-jitter
	// fix of Indrusiak et al. (Equation 5 of the paper): the safe
	// state-of-the-art baseline, which treats downstream indirect
	// interference as if it were direct interference.
	XLWX
	// IBN is the paper's proposed buffer-aware analysis (Equations 6–8):
	// like XLWX but bounding each downstream hit's replayed interference
	// by the buffer capacity of the contention domain.
	IBN
	// SLA is a simplified stage-level analysis in the spirit of Kashif &
	// Patel 2015: SB refined by the buffered overlap along the contention
	// domain (see sla.go). Equal to SB at 1-flit buffers, tighter with
	// deeper ones, and — like SB — UNSAFE under MPB.
	SLA
)

// String returns the method's canonical name ("SB", "XLWX", "IBN",
// "SLA"), the inverse of ParseMethod.
func (m Method) String() string {
	switch m {
	case SB:
		return "SB"
	case XLWX:
		return "XLWX"
	case IBN:
		return "IBN"
	case SLA:
		return "SLA"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures an analysis run.
type Options struct {
	// Method selects the analysis. Default SB (zero value) is explicit in
	// all call sites of this repository; prefer naming it.
	Method Method
	// BufDepth overrides buf(Ξ) of the platform when > 0. Only IBN uses
	// the buffer depth; the override makes IBN2/IBN100-style comparisons
	// cheap (no need to rebuild topology or system).
	BufDepth int
	// Eq7 makes IBN use the un-clamped Equation 7 (the buffered
	// interference bi_ij alone, without min-ing it against the XLWX term).
	// As the paper notes, Equation 7 can exceed the XLWX bound when
	// downstream interference cannot fill the contention-domain buffers;
	// this ablation exists to demonstrate exactly that.
	Eq7 bool
	// NoUpstreamFallback disables IBN's safety rule of falling back to the
	// XLWX term for direct interferers that suffer upstream indirect
	// interference (whose packets may arrive "chopped up" into waves,
	// invalidating Equation 8's buffering argument). Disabling the
	// fallback reproduces the optimism hazard discussed in Section IV and
	// must not be used for real guarantees.
	NoUpstreamFallback bool
	// MaxIterations caps the response-time fixed-point iteration per flow
	// (0 means DefaultMaxIterations). The iteration is monotone, so the
	// cap only triggers on pathological inputs.
	MaxIterations int
}

// DefaultMaxIterations is the per-flow fixed-point iteration cap applied
// when Options.MaxIterations is zero or negative. Exported so cache-key
// canonicalisation (internal/canon) can map "unset" and "default" to the
// same key.
const DefaultMaxIterations = 1 << 20

// FlowStatus describes the outcome of analysing one flow.
type FlowStatus int

const (
	// Schedulable: the fixed point converged with R <= D.
	Schedulable FlowStatus = iota
	// DeadlineMiss: the response-time bound exceeded the deadline.
	DeadlineMiss
	// DependencyFailed: a higher-priority flow this flow's bound depends
	// on was itself unschedulable, so no bound could be computed.
	DependencyFailed
	// Diverged: the iteration hit MaxIterations without converging, or
	// its sum exceeded int64 cycles (R is then noc.MaxCycles).
	Diverged
)

// String returns the status as a lower-case hyphenated word, e.g.
// "schedulable" or "deadline-miss" (the wire form used by cmd/nocserve).
func (st FlowStatus) String() string {
	switch st {
	case Schedulable:
		return "schedulable"
	case DeadlineMiss:
		return "deadline-miss"
	case DependencyFailed:
		return "dependency-failed"
	case Diverged:
		return "diverged"
	default:
		return fmt.Sprintf("FlowStatus(%d)", int(st))
	}
}

// FlowResult is the per-flow outcome of an analysis.
type FlowResult struct {
	// R is the worst-case latency upper bound in cycles. Valid only when
	// Status is Schedulable or DeadlineMiss (for DeadlineMiss it holds the
	// first value observed past the deadline).
	R noc.Cycles
	// Status classifies the outcome.
	Status FlowStatus
}

// Result is the outcome of analysing a whole flow set.
type Result struct {
	// Method is the analysis that produced the result.
	Method Method
	// Flows holds per-flow results, indexed like the System's flows.
	Flows []FlowResult
	// Schedulable is true when every flow's bound meets its deadline.
	Schedulable bool
}

// R returns the response-time bound of flow i.
func (r *Result) R(i int) noc.Cycles { return r.Flows[i].R }

// Analyze computes worst-case response-time bounds for every flow of the
// system under the selected analysis. Flows are processed from highest
// to lowest priority; a flow whose bound depends on an unschedulable
// higher-priority flow is marked DependencyFailed.
//
// For repeated analyses of one system (several methods, buffer depths,
// or concurrent callers) prefer an Engine, which reuses the interference
// sets and the per-run working state.
func Analyze(sys *traffic.System, opt Options) (*Result, error) {
	return NewEngine(sys).Analyze(opt)
}

// hitTerm is one direct interferer's precomputed contribution to the
// fixed-point iteration. Interference terms are independent of R_i (they
// depend only on the already-final bounds of higher-priority flows), so
// they are computed once and the iteration only re-evaluates ceilings.
type hitTerm struct {
	jitter  noc.Cycles // J_j (+ interference jitter where applicable)
	period  noc.Cycles // T_j
	hit     noc.Cycles // interference added per hit of τj
	replays noc.Cycles // MPB replay episodes per hit (blocking term)
}

// analyzer is the working state of one analysis run: the options, the
// arena holding results and memos, and the run's telemetry.
type analyzer struct {
	sys  *traffic.System
	sets *Sets
	opt  Options
	ar   *arena
	// ctx cancels the run early; checked between flows and periodically
	// inside the fixed-point loop. Never nil (context.Background() when
	// the caller supplied none).
	ctx context.Context
	// R and status of flows already analysed (higher priority first);
	// views into the arena.
	R        []noc.Cycles
	status   []FlowStatus
	analyzed []bool
	// depth tracks the live I^down recursion depth for telemetry.
	depth int64
	tel   Telemetry
}

// errDependency signals that a required higher-priority bound is missing.
type errDependency struct{ flow int }

func (e errDependency) Error() string {
	return fmt.Sprintf("core: depends on unschedulable flow %d", e.flow)
}

// ceilDiv returns ceil(a/b) for a >= 0, b > 0, without overflow. A
// saturated dividend (noc.MaxCycles) stands for an unbounded window and
// yields an unbounded count.
func ceilDiv(a, b noc.Cycles) noc.Cycles {
	if a == noc.MaxCycles {
		return noc.MaxCycles
	}
	q := a / b
	if q*b != a {
		q++
	}
	return q
}

// ctxCheckInterval is how many fixed-point iterations pass between
// context-cancellation checks. A power of two so the check compiles to a
// mask; small enough that even a 1ms deadline aborts a pathological
// iteration promptly.
const ctxCheckInterval = 64

// analyzeFlow computes the response-time bound of flow i, assuming all
// higher-priority flows have been analysed already. It returns a non-nil
// error only when the run's context was cancelled mid-iteration (or a
// fault was injected at the fixed-point site under test); every
// analytical outcome (including divergence) is reported via the flow's
// status instead.
//
// A seed above the zero-load latency warm-starts the fixed-point
// iteration there instead of at C_i (0 means a cold start). The
// iteration function F is monotone in r, so any seed r0 with
// C_i <= r0 <= lfp (the least fixed point at or above C_i) yields
// iterates squeezed between the cold Kleene chain and lfp, and therefore
// converges to exactly lfp — the monotone-restart argument the
// incremental engine relies on when it seeds from a previous converged
// bound after an interference-enlarging edit. A seed above lfp would
// converge to some higher fixed point; callers must only pass seeds
// known to be at or below the new least fixed point.
func (a *analyzer) analyzeFlow(i int, seed noc.Cycles) error {
	defer func() { a.analyzed[i] = true }()
	fi := a.sys.Flow(i)
	ci := a.sys.C(i)
	// An arena reused across incremental passes holds stale values;
	// every outcome below must write R[i], including the dependency
	// failures that leave it at the cold-run zero.
	a.R[i] = 0

	terms := a.ar.terms[:0]
	defer func() { a.ar.terms = terms[:0] }()
	// Non-preemptive flit-transfer blocking applies only to multi-cycle
	// links (see blocking.go); it is zero in the paper's configuration.
	var blockPerEpisode noc.Cycles
	if linkl := a.sys.Topology().Config().LinkLatency; linkl > 1 {
		blockPerEpisode = noc.SatMul(linkl-1, noc.Cycles(a.sharedLowLinks(i)))
	}
	for _, j := range a.sets.Direct(i) {
		if a.status[j] != Schedulable {
			a.status[i] = DependencyFailed
			return nil
		}
		jitter, hit, err := a.term(i, j)
		if err != nil {
			a.status[i] = DependencyFailed
			return nil
		}
		t := hitTerm{jitter: jitter, period: a.sys.Flow(j).Period, hit: hit}
		if blockPerEpisode > 0 {
			replays, err := a.replayEpisodes(i, j)
			if err != nil {
				a.status[i] = DependencyFailed
				return nil
			}
			t.replays = replays
		}
		terms = append(terms, t)
	}

	r := ci
	if seed > ci {
		r = seed
	}
	for iter := 0; ; iter++ {
		if iter%ctxCheckInterval == 0 {
			if err := a.ctx.Err(); err != nil {
				return err
			}
			if faultinject.Enabled() {
				faultinject.Fire(faultinject.SiteCoreFixedPoint, strconv.Itoa(i))
			}
		}
		a.tel.Iterations++
		next := ci
		episodes := noc.Cycles(1)
		for _, t := range terms {
			hits := ceilDiv(noc.SatAdd(r, t.jitter), t.period)
			next = noc.SatAdd(next, noc.SatMul(hits, t.hit))
			episodes = noc.SatAdd(episodes, noc.SatMul(hits, noc.SatAdd(1, t.replays)))
		}
		next = noc.SatAdd(next, noc.SatMul(blockPerEpisode, episodes))
		if next == noc.MaxCycles {
			// A saturated sum bounds nothing, so it cannot pass the
			// deadline test below, even against D = MaxInt64.
			a.R[i] = next
			a.status[i] = Diverged
			return nil
		}
		if next == r {
			a.R[i] = r
			// Convergence alone is not schedulability: a flow whose
			// zero-load latency already exceeds its deadline converges
			// at r = C on the first iteration without ever taking the
			// growth path below.
			if r > fi.Deadline {
				a.status[i] = DeadlineMiss
			} else {
				a.status[i] = Schedulable
			}
			return nil
		}
		r = next
		if r > fi.Deadline {
			a.R[i] = r
			a.status[i] = DeadlineMiss
			return nil
		}
		if iter >= a.opt.MaxIterations {
			a.R[i] = r
			a.status[i] = Diverged
			return nil
		}
	}
}

// requireR returns the final response-time bound of flow j, or an error
// when j was not schedulable (its bound is then meaningless).
func (a *analyzer) requireR(j int) (noc.Cycles, error) {
	if !a.analyzed[j] || a.status[j] != Schedulable {
		return 0, errDependency{flow: j}
	}
	return a.R[j], nil
}

// enter/leave bracket one level of the I^down recursion for the depth
// telemetry.
func (a *analyzer) enter() {
	a.depth++
	if a.depth > a.tel.MaxDownstreamDepth {
		a.tel.MaxDownstreamDepth = a.depth
	}
}

func (a *analyzer) leave() { a.depth-- }

// idownXLWX evaluates Equation 3 for the direct pair (j, i) of rank r:
// the downstream indirect interference suffered by τj from every
// τk ∈ S^downj_Ii, each hit of τk costing its full interference
// contribution C_k + I^down_{kj}. Memoised in the arena's XLWX space,
// which also serves IBN's upstream fallback.
func (a *analyzer) idownXLWX(r int) (noc.Cycles, error) {
	if a.ar.xlwxSet[r] {
		a.tel.MemoHits++
		return a.ar.xlwxVal[r], nil
	}
	a.tel.MemoMisses++
	a.enter()
	defer a.leave()
	rj, err := a.requireR(a.sets.direct[r])
	if err != nil {
		return 0, err
	}
	var sum noc.Cycles
	for _, q := range a.sets.downstream(r) {
		k := a.sets.direct[q]
		rk, err := a.requireR(k)
		if err != nil {
			return 0, err
		}
		fk := a.sys.Flow(k)
		inner, err := a.idownXLWX(int(q))
		if err != nil {
			return 0, err
		}
		jiK := rk - a.sys.C(k)
		hits := ceilDiv(noc.SatAdd(noc.SatAdd(rj, fk.Jitter), jiK), fk.Period)
		sum = noc.SatAdd(sum, noc.SatMul(hits, noc.SatAdd(a.sys.C(k), inner)))
	}
	a.ar.xlwxVal[r] = sum
	a.ar.xlwxSet[r] = true
	return sum, nil
}

// idownIBN evaluates the proposed analysis's downstream term for the
// direct pair (j, i) of rank r:
//
//   - when τj suffers upstream indirect interference (S^upj_Ii non-empty)
//     its packets may arrive into cd_ij chopped into waves, so Equation 8
//     is not applicable and the XLWX term (Equation 3) is used — the
//     proposed analysis is then exactly XLWX for this pair;
//   - otherwise, Equation 8: each downstream hit by τk costs
//     min(bi_ij, C_k + I^down_{kj}), where bi_ij (Equation 6) is the
//     buffer capacity of the contention domain cd_ij.
func (a *analyzer) idownIBN(r, i int) (noc.Cycles, error) {
	if a.ar.ibnSet[r] {
		a.tel.MemoHits++
		return a.ar.ibnVal[r], nil
	}
	if !a.opt.NoUpstreamFallback && a.sets.hasUpstream(r) {
		return a.idownXLWX(r)
	}
	a.tel.MemoMisses++
	a.enter()
	defer a.leave()
	j := a.sets.direct[r]
	rj, err := a.requireR(j)
	if err != nil {
		return 0, err
	}
	bi := a.sets.BufferedInterference(i, j, a.opt.BufDepth)
	var sum noc.Cycles
	for _, q := range a.sets.downstream(r) {
		k := a.sets.direct[q]
		fk := a.sys.Flow(k)
		perHit := bi
		if !a.opt.Eq7 {
			inner, err := a.idownIBN(int(q), j)
			if err != nil {
				return 0, err
			}
			if alt := noc.SatAdd(a.sys.C(k), inner); alt < perHit {
				perHit = alt
			}
		}
		hits := ceilDiv(noc.SatAdd(rj, fk.Jitter), fk.Period)
		sum = noc.SatAdd(sum, noc.SatMul(hits, perHit))
	}
	a.ar.ibnVal[r] = sum
	a.ar.ibnSet[r] = true
	return sum, nil
}

package oracle

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"

	"wormnoc/internal/core"
	"wormnoc/internal/exhaustive"
	"wormnoc/internal/noc"
	"wormnoc/internal/parallel"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
)

// CheckConfig parameterises one invariant check of a scenario. The zero
// value selects a budget suited to fuzzing many scenarios; raise
// Duration/Restarts/ProbesPerFlow for a harder adversary.
type CheckConfig struct {
	// Seed drives every random choice of the check: each flow's phasing
	// search receives its own *rand.Rand seeded deterministically from
	// it (see DeriveSeed), so a violation replays from (scenario, Seed)
	// alone.
	Seed int64
	// Duration is the simulation horizon per phasing probe (default
	// 12_000 cycles).
	Duration noc.Cycles
	// Restarts, RefineSteps and ProbesPerFlow tune the per-flow phasing
	// search (defaults 2, 1, 4; see sim.SearchConfig).
	Restarts, RefineSteps, ProbesPerFlow int
	// Workers bounds the fan-out over attacked flows (0 = all CPUs).
	Workers int
	// ExtraBufDepths, when non-empty, replaces the default buffer-depth
	// ladder probed by the monotonicity invariant (the platform's depth
	// plus +1, ×2 and +8 by default). Depths are probed in ascending
	// order.
	ExtraBufDepths []int
	// EditChainLen is the length of the random edit chain the
	// incremental-divergence invariant replays against the scenario
	// (default DefaultEditChainLen). Negative disables the replay.
	EditChainLen int
	// ExhaustiveStates, when positive, arms the explicit-state backend:
	// scenarios whose full phasing grid fits this many states (and the
	// structural limits of internal/exhaustive) are exhaustively
	// enumerated and held to the chain search <= exhaustive <= IBN <=
	// XLWX, with the search-vs-exhaustive gap reported in
	// Report.Exhaustive. Zero disables the backend — it only pays off on
	// deliberately tiny scenarios (see GenConfig for the knobs that keep
	// grids small). Scenarios out of reach are skipped with a Note,
	// never silently.
	ExhaustiveStates int64
	// ExhaustiveReduce selects the state-space reductions the backend
	// explores under (see exhaustive.Reduction). The zero value,
	// exhaustive.ReduceAll, applies both proof-preserving reductions —
	// the budget check above compares ExhaustiveStates against the
	// REDUCED size, so scenarios whose raw grid is out of reach still
	// get proofs when their reduced space fits. The other modes exist
	// for differential validation (`nocfuzz exhaust -reduce=...`).
	ExhaustiveReduce exhaustive.Reduction

	// mutate, when non-nil, rewrites every analytic bound before the
	// invariants see it. It exists solely for the mutation self-test:
	// deliberately corrupting a bound must make the oracle report a
	// violation, proving the invariants have teeth. Never set on real
	// verification runs (it is unexported and unserialised on purpose).
	mutate func(m core.Method, flow int, r noc.Cycles) noc.Cycles
	// search, when non-nil, replaces sim.SearchWorstCase in the attack.
	// Like mutate it exists solely for the mutation self-test: a search
	// whose scoped probes stop too early must trip the
	// search-replay-agrees invariant.
	search func(*traffic.System, sim.SearchConfig) (*sim.SearchResult, error)
}

func (c *CheckConfig) setDefaults() {
	if c.Duration <= 0 {
		c.Duration = 12_000
	}
	if c.Restarts <= 0 {
		c.Restarts = 2
	}
	if c.RefineSteps <= 0 {
		c.RefineSteps = 1
	}
	if c.ProbesPerFlow <= 0 {
		c.ProbesPerFlow = 4
	}
	if c.EditChainLen == 0 {
		c.EditChainLen = DefaultEditChainLen
	}
}

// Class partitions everything the oracle can detect.
type Class int

const (
	// Unsound: an observed latency exceeded a bound the analysis
	// declared safe. The most severe class — for XLWX/IBN it falsifies
	// the paper's claims (or, far more likely, this reproduction).
	Unsound Class = iota
	// Inconsistent: the analyses disagree where they must not —
	// R_IBN > R_XLWX, or a flow XLWX schedules that IBN rejects.
	Inconsistent
	// NonMonotone: an IBN bound tightened when buffers grew,
	// contradicting Equation 6's monotone buffer term.
	NonMonotone
	// NonDeterministic: rebuilding the engine changed a result.
	NonDeterministic
	// Divergent: the event-driven simulation engine disagreed with the
	// retained cycle-scanning reference engine (or a reused Engine
	// disagreed with a fresh one) when replaying a worst-case phasing,
	// or the full-horizon replay did not reproduce the worst latency the
	// search's target-scoped probes reported (search-replay-agrees).
	// The engines are bit-identical by construction; any divergence
	// is a simulator bug that silently poisons every sim-based
	// invariant, so it is reported as a violation in its own class.
	Divergent
	// IncrementalDivergent: the delta-aware incremental analysis engine
	// produced a result that is not bit-identical to a from-scratch
	// analysis of the same edited system, somewhere along a random edit
	// chain. Warm-started fixed points are only admissible because they
	// converge to the same point as cold ones; any divergence is an
	// invalidation or warm-start bug in internal/core's Incremental.
	IncrementalDivergent
	// ExhaustiveDivergent: the explicit-state backend (internal/
	// exhaustive) falsified its chain on a small scenario — the
	// randomised search exceeded the supposedly complete enumeration
	// (search<=exhaustive), the true in-class worst case exceeded a
	// declared-safe IBN/XLWX bound (exhaustive<=IBN, exhaustive<=XLWX),
	// or a schedulable flow left packets unfinished a deadline past
	// release (exhaustive-censor-free). The first invariant indicts the
	// enumeration itself; the others are ground-truth unsoundness
	// evidence, stronger than a sampled attack because the whole phasing
	// class was checked.
	ExhaustiveDivergent
	// KnownOptimism: an observed latency exceeded an SB or SLA bound.
	// This is the multi-point progressive blocking effect those
	// analyses miss — expected behaviour, reported as a finding rather
	// than a violation.
	KnownOptimism
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Unsound:
		return "unsound"
	case Inconsistent:
		return "inconsistent"
	case NonMonotone:
		return "non-monotone"
	case NonDeterministic:
		return "non-deterministic"
	case Divergent:
		return "divergent-sim"
	case IncrementalDivergent:
		return "incremental-divergent"
	case ExhaustiveDivergent:
		return "exhaustive-divergent"
	case KnownOptimism:
		return "known-optimism"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// parseClass is the inverse of Class.String, used by artifact replay.
func parseClass(s string) (Class, error) {
	for _, c := range []Class{Unsound, Inconsistent, NonMonotone, NonDeterministic, Divergent, IncrementalDivergent, ExhaustiveDivergent, KnownOptimism} {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("oracle: unknown violation class %q", s)
}

// Violation is one invariant breach (or, for KnownOptimism, one
// classified expected-optimism finding).
type Violation struct {
	// Class classifies the breach.
	Class Class
	// Invariant names the checked property, e.g. "sim<=IBN".
	Invariant string
	// Method is the analysis whose bound is implicated.
	Method core.Method
	// Flow indexes the affected flow in the scenario's flow set.
	Flow int
	// Bound and Observed are the two sides of the failed comparison (for
	// sim-based invariants: the analytic bound and the observed
	// latency; for analytic cross-checks: the two bounds).
	Bound, Observed noc.Cycles
	// Offsets, for sim-based breaches, is the release phasing that
	// exhibits the observed latency.
	Offsets []noc.Cycles
	// BufA and BufB, for monotonicity breaches, are the two buffer
	// depths compared (bound at BufB < bound at BufA despite BufB>BufA).
	BufA, BufB int
	// Detail is a human-readable one-liner.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: flow %d (%s): %s", v.Class, v.Invariant, v.Flow, v.Method, v.Detail)
}

// Report is the outcome of checking one scenario.
type Report struct {
	// Scenario is the checked subject.
	Scenario *Scenario
	// Methods lists every analysis that was run (all registered ones).
	Methods []core.Method
	// Violations holds invariant breaches, deterministically ordered.
	// Empty means the scenario passed.
	Violations []Violation
	// Findings holds the KnownOptimism classifications: observed MPB
	// latencies beyond the unsafe SB/SLA bounds.
	Findings []Violation
	// FlowsAttacked counts flows whose bounds were adversarially
	// searched; SimRuns counts the runs spent checking: the replays,
	// the exhaustive backend's states and every search probe, whether
	// simulated, walked through the busy-period table or resolved by the
	// target's influence set without a run (sim.SearchResult.Runs).
	FlowsAttacked, SimRuns int
	// Exhaustive, when the explicit-state backend ran (see
	// CheckConfig.ExhaustiveStates), reports its coverage and the
	// per-flow search-vs-exhaustive gap. Nil when the backend was
	// disabled or the scenario was out of its reach (a Note says which).
	Exhaustive *ExhaustiveReport
	// Notes records checks that were skipped and why (e.g. the sim
	// attack on a platform outside Equation 1's validity region).
	Notes []string
}

// unsafeUnderMPB marks the analyses that are documented to produce
// optimistic bounds in multi-point progressive blocking scenarios;
// observed latencies beyond their bounds are classified KnownOptimism
// instead of Unsound.
var unsafeUnderMPB = map[core.Method]bool{core.SB: true, core.SLA: true}

// Check runs every registered analysis over the scenario, attacks the
// bounds with the simulator's phasing search and evaluates the
// invariant suite. It is deterministic in (sc, cfg).
func Check(sc *Scenario, cfg CheckConfig) (*Report, error) {
	cfg.setDefaults()
	sys, err := sc.System()
	if err != nil {
		return nil, fmt.Errorf("oracle: materialising scenario: %w", err)
	}
	methods := core.Methods()
	rep := &Report{Scenario: sc, Methods: methods}

	bound := func(m core.Method, flow int, r noc.Cycles) noc.Cycles {
		if cfg.mutate != nil {
			return cfg.mutate(m, flow, r)
		}
		return r
	}

	// One engine serves every analysis; a second, independently built
	// engine backs the determinism invariant.
	eng := core.NewEngine(sys)
	results := make(map[core.Method]*core.Result, len(methods))
	for _, m := range methods {
		res, err := eng.Analyze(core.Options{Method: m})
		if err != nil {
			return nil, fmt.Errorf("oracle: %s analysis: %w", m, err)
		}
		results[m] = res
	}

	// Invariant: analysis determinism across engine rebuilds. The
	// comparison runs on raw results — a bound mutation must not mask
	// (or fake) nondeterminism.
	eng2 := core.NewEngine(sys)
	for _, m := range methods {
		again, err := eng2.Analyze(core.Options{Method: m})
		if err != nil {
			return nil, fmt.Errorf("oracle: %s re-analysis: %w", m, err)
		}
		for i := range again.Flows {
			if again.Flows[i] != results[m].Flows[i] {
				rep.Violations = append(rep.Violations, Violation{
					Class:     NonDeterministic,
					Invariant: "rebuild-deterministic",
					Method:    m,
					Flow:      i,
					Bound:     results[m].Flows[i].R,
					Observed:  again.Flows[i].R,
					Detail: fmt.Sprintf("engine rebuild changed the result: %+v vs %+v",
						results[m].Flows[i], again.Flows[i]),
				})
			}
		}
	}

	// Invariant: IBN is never looser than XLWX (Equation 8 takes a min),
	// and never loses a flow XLWX schedules.
	xlwx, ibn := results[core.XLWX], results[core.IBN]
	if xlwx == nil || ibn == nil {
		return nil, fmt.Errorf("oracle: XLWX and IBN must be registered (got %v)", methods)
	}
	for i := range xlwx.Flows {
		if xlwx.Flows[i].Status != core.Schedulable {
			continue
		}
		bx := bound(core.XLWX, i, xlwx.Flows[i].R)
		if ibn.Flows[i].Status != core.Schedulable {
			rep.Violations = append(rep.Violations, Violation{
				Class:     Inconsistent,
				Invariant: "IBN<=XLWX",
				Method:    core.IBN,
				Flow:      i,
				Bound:     bx,
				Detail: fmt.Sprintf("XLWX schedulable (R=%d) but IBN reports %s",
					bx, ibn.Flows[i].Status),
			})
			continue
		}
		bi := bound(core.IBN, i, ibn.Flows[i].R)
		if bi > bx {
			rep.Violations = append(rep.Violations, Violation{
				Class:     Inconsistent,
				Invariant: "IBN<=XLWX",
				Method:    core.IBN,
				Flow:      i,
				Bound:     bx,
				Observed:  bi,
				Detail:    fmt.Sprintf("R_IBN %d > R_XLWX %d", bi, bx),
			})
		}
	}

	// Invariant: the IBN bound is monotone in the buffer depth.
	rep.Violations = append(rep.Violations, checkBufferMonotone(sc, sys, eng, cfg, bound)...)

	// Invariant: the delta-aware incremental engine is bit-identical to
	// from-scratch analysis at every step of a random edit chain. Runs
	// after the monotonicity ladder so the bound hook's call order over
	// the base system stays stable for the mutation self-tests.
	if cfg.EditChainLen > 0 {
		vs, err := checkIncrementalDivergent(sys, methods, cfg, bound)
		if err != nil {
			return nil, err
		}
		rep.Violations = append(rep.Violations, vs...)
	} else {
		rep.Notes = append(rep.Notes, "incremental replay skipped: EditChainLen < 0")
	}

	// The sim-vs-analysis invariants only hold inside Equation 1's
	// validity region: 1-flit buffers cannot cover the credit round
	// trip, so even uncontended packets exceed C there (see
	// MinBufDepth). The analytic invariants above still apply; only the
	// adversarial attack is skipped, and loudly.
	if sc.Doc.Mesh.BufDepth < MinBufDepth {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"sim attack skipped: buf=%d is below Equation 1's validity floor of %d",
			sc.Doc.Mesh.BufDepth, MinBufDepth))
		sortViolations(rep.Violations)
		return rep, nil
	}

	// Adversarial attack: search the worst phasing of every flow some
	// analysis bounded, fanning out on the shared worker pool. Each
	// search owns a rand.Rand derived from cfg.Seed and its flow index.
	type attack struct {
		worst   noc.Cycles
		offsets []noc.Cycles
		runs    int
		skipped bool
	}
	anyJitter := false
	for i := 0; i < sys.NumFlows(); i++ {
		if sys.Flow(i).Jitter > 0 {
			anyJitter = true
		}
	}
	attacks := make([]attack, sys.NumFlows())
	// Every search of the scenario, the in-class comparison searches
	// included, shares one busy-period table (DESIGN.md §10).
	table := new(sim.BusyPeriodTable)
	search := sim.SearchWorstCase
	if cfg.search != nil {
		search = cfg.search
	}
	var mu sync.Mutex
	runner := &parallel.Runner{Workers: cfg.Workers}
	err = runner.Run(sys.NumFlows(), func(target int) error {
		bounded := false
		for _, m := range methods {
			if results[m].Flows[target].Status == core.Schedulable {
				bounded = true
				break
			}
		}
		if !bounded {
			mu.Lock()
			attacks[target].skipped = true
			mu.Unlock()
			return nil
		}
		found, err := search(sys, sim.SearchConfig{
			Base: sim.Config{
				Duration:     cfg.Duration,
				InjectJitter: anyJitter,
				JitterSeed:   DeriveSeed(cfg.Seed, int64(target)*2+1),
			},
			Target:        target,
			Restarts:      cfg.Restarts,
			RefineSteps:   cfg.RefineSteps,
			ProbesPerFlow: cfg.ProbesPerFlow,
			// The check already fans out across target flows (and a
			// campaign across scenarios); serial probe batches avoid
			// stacking a third pool on the same cores.
			Workers: 1,
			Rand:    rand.New(rand.NewSource(DeriveSeed(cfg.Seed, int64(target)*2))),
			Table:   table,
		})
		if err != nil {
			return err
		}
		mu.Lock()
		attacks[target] = attack{worst: found.Worst, offsets: found.Offsets, runs: found.Runs}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("oracle: phasing search: %w", err)
	}

	// Invariant: simulation-engine agreement. Replay every attacked
	// flow's worst phasing through the event-driven engine (fresh and
	// reused) and the retained cycle-scanning reference engine; the
	// three must agree bit for bit, and with the worst latency the
	// search's target-scoped probes reported, or every sim-based verdict
	// above is built on sand (DESIGN.md §10).
	simEng := sim.NewEngine(sys)
	for target, at := range attacks {
		if at.skipped {
			continue
		}
		rep.Violations = append(rep.Violations,
			checkEngineAgreement(sys, simEng, target, at.worst, sim.Config{
				Duration:     cfg.Duration,
				Offsets:      at.offsets,
				InjectJitter: anyJitter,
				JitterSeed:   DeriveSeed(cfg.Seed, int64(target)*2+1),
			})...)
		rep.SimRuns += 3
	}

	for target, at := range attacks {
		if at.skipped {
			continue
		}
		rep.FlowsAttacked++
		rep.SimRuns += at.runs
		if at.worst < 0 {
			// No packet of the target completed within the horizon —
			// nothing to compare (the horizon is the caller's budget
			// knob, not an invariant).
			continue
		}
		for _, m := range methods {
			fr := results[m].Flows[target]
			if fr.Status != core.Schedulable {
				continue
			}
			b := bound(m, target, fr.R)
			if at.worst <= b {
				continue
			}
			v := Violation{
				Invariant: "sim<=" + m.String(),
				Method:    m,
				Flow:      target,
				Bound:     b,
				Observed:  at.worst,
				Offsets:   append([]noc.Cycles(nil), at.offsets...),
				Detail:    fmt.Sprintf("observed latency %d exceeds bound %d by %d", at.worst, b, at.worst-b),
			}
			if unsafeUnderMPB[m] {
				v.Class = KnownOptimism
				rep.Findings = append(rep.Findings, v)
			} else {
				v.Class = Unsound
				rep.Violations = append(rep.Violations, v)
			}
		}
	}

	// Invariant chain of the explicit-state backend: on scenarios small
	// enough to enumerate, upgrade "no violation found" to "provably
	// none exists in the canonical phasing class" — and hold the
	// randomised search to the enumeration (search<=exhaustive) while
	// holding the declared-safe bounds to the true worst case
	// (exhaustive<=IBN<=XLWX, plus censor-freedom).
	if cfg.ExhaustiveStates > 0 {
		vs, er, notes, runs, err := checkExhaustive(sys, results, cfg, bound, table)
		if err != nil {
			return nil, err
		}
		rep.Violations = append(rep.Violations, vs...)
		rep.Exhaustive = er
		rep.Notes = append(rep.Notes, notes...)
		rep.SimRuns += runs
	}

	sortViolations(rep.Violations)
	sortViolations(rep.Findings)
	return rep, nil
}

// checkEngineAgreement replays target's worst phasing through the
// retained reference engine, a fresh event-driven run and the reused
// engine, and reports the engines' disagreements (engineDivergences)
// and a violation if the full-horizon replay does not reproduce
// searchWorst, the worst latency the search's target-scoped probes
// reported.
func checkEngineAgreement(sys *traffic.System, reused *sim.Engine, target int, searchWorst noc.Cycles, runCfg sim.Config) []Violation {
	ref, err := sim.RunReference(sys, runCfg)
	if err != nil {
		return []Violation{divergence(target, -1, -1,
			fmt.Sprintf("reference engine failed on replay: %v", err))}
	}
	fresh, err := sim.Run(sys, runCfg)
	if err != nil {
		return []Violation{divergence(target, -1, -1,
			fmt.Sprintf("event-driven engine failed on replay: %v", err))}
	}
	warm, err := reused.Run(runCfg)
	if err != nil {
		return []Violation{divergence(target, -1, -1,
			fmt.Sprintf("reused event-driven engine failed on replay: %v", err))}
	}
	var out []Violation
	if ref.WorstLatency[target] != searchWorst {
		v := divergence(target, ref.WorstLatency[target], searchWorst,
			fmt.Sprintf("the phasing search reported %d, its full-horizon replay observes %d",
				searchWorst, ref.WorstLatency[target]))
		v.Invariant = "search-replay-agrees"
		out = append(out, v)
	}
	out = append(out, engineDivergences(target, ref, fresh, warm)...)
	for i := range out {
		out[i].Offsets = append([]noc.Cycles(nil), runCfg.Offsets...)
	}
	return out
}

// engineDivergences compares the fresh and reused event-driven replays
// of target's worst phasing with the reference's: a Divergent violation
// per flow whose observed worst latency differs, and one per engine
// whose Result differs in any other field.
func engineDivergences(target int, ref, fresh, warm *sim.Result) []Violation {
	var out []Violation
	for i := range ref.WorstLatency {
		if fresh.WorstLatency[i] != ref.WorstLatency[i] {
			out = append(out, divergence(i, ref.WorstLatency[i], fresh.WorstLatency[i],
				fmt.Sprintf("event-driven engine observed %d, reference %d (replaying flow %d's worst phasing)",
					fresh.WorstLatency[i], ref.WorstLatency[i], target)))
		} else if warm.WorstLatency[i] != ref.WorstLatency[i] {
			out = append(out, divergence(i, ref.WorstLatency[i], warm.WorstLatency[i],
				fmt.Sprintf("reused engine observed %d, reference %d (replaying flow %d's worst phasing)",
					warm.WorstLatency[i], ref.WorstLatency[i], target)))
		}
	}
	for _, r := range []struct {
		engine string
		res    *sim.Result
	}{{"event-driven", fresh}, {"reused", warm}} {
		if field := resultDiff(ref, r.res); field != "" && field != "WorstLatency" {
			out = append(out, divergence(target, -1, -1,
				fmt.Sprintf("%s engine's Result differs from the reference's in %s (replaying flow %d's worst phasing)",
					r.engine, field, target)))
		}
	}
	return out
}

// resultDiff names the first Result field in which got differs from
// ref, or returns "" when they agree in all of them. Stats is skipped:
// it counts how a run was computed (fast-path batches), not what it
// observed.
func resultDiff(ref, got *sim.Result) string {
	a, b := reflect.ValueOf(ref).Elem(), reflect.ValueOf(got).Elem()
	for i := 0; i < a.NumField(); i++ {
		name := a.Type().Field(i).Name
		if name != "Stats" && !reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
			return name
		}
	}
	return ""
}

func divergence(flow int, bound, observed noc.Cycles, detail string) Violation {
	return Violation{
		Class:     Divergent,
		Invariant: "sim-engines-agree",
		Flow:      flow,
		Bound:     bound,
		Observed:  observed,
		Detail:    detail,
	}
}

// checkBufferMonotone probes the IBN bound over an ascending
// buffer-depth ladder: shrinking buf(Ξ) must never loosen — and growing
// it must never tighten — the bound, because Equation 6's buffered
// interference is non-decreasing in the depth.
func checkBufferMonotone(sc *Scenario, sys *traffic.System, eng *core.Engine, cfg CheckConfig,
	bound func(core.Method, int, noc.Cycles) noc.Cycles) []Violation {

	base := sc.Doc.Mesh.BufDepth
	depths := cfg.ExtraBufDepths
	if len(depths) == 0 {
		depths = []int{base, base + 1, base * 2, base + 8}
	}
	depths = append([]int(nil), depths...)
	sort.Ints(depths)
	var out []Violation
	prev := make([]noc.Cycles, sys.NumFlows())
	prevDepth := make([]int, sys.NumFlows())
	for i := range prev {
		prev[i] = -1
	}
	seen := -1
	for _, d := range depths {
		if d <= 0 || d == seen {
			continue
		}
		seen = d
		res, err := eng.Analyze(core.Options{Method: core.IBN, BufDepth: d})
		if err != nil {
			out = append(out, Violation{
				Class:     NonDeterministic,
				Invariant: "IBN-monotone-in-buf",
				Method:    core.IBN,
				Detail:    fmt.Sprintf("analysis failed at buf=%d: %v", d, err),
			})
			return out
		}
		for i := range res.Flows {
			if res.Flows[i].Status != core.Schedulable {
				continue
			}
			r := bound(core.IBN, i, res.Flows[i].R)
			if prev[i] >= 0 && r < prev[i] {
				out = append(out, Violation{
					Class:     NonMonotone,
					Invariant: "IBN-monotone-in-buf",
					Method:    core.IBN,
					Flow:      i,
					Bound:     prev[i],
					Observed:  r,
					BufA:      prevDepth[i],
					BufB:      d,
					Detail: fmt.Sprintf("R_IBN dropped from %d (buf=%d) to %d (buf=%d)",
						prev[i], prevDepth[i], r, d),
				})
			}
			prev[i] = r
			prevDepth[i] = d
		}
	}
	return out
}

func sortViolations(vs []Violation) {
	sort.Slice(vs, func(a, b int) bool {
		if vs[a].Class != vs[b].Class {
			return vs[a].Class < vs[b].Class
		}
		if vs[a].Invariant != vs[b].Invariant {
			return vs[a].Invariant < vs[b].Invariant
		}
		if vs[a].Flow != vs[b].Flow {
			return vs[a].Flow < vs[b].Flow
		}
		return vs[a].Method < vs[b].Method
	})
}

// Package exhaustive is the explicit-state verification backend for
// small configurations: where the oracle's randomised phasing search
// (sim.SearchWorstCase) samples the space of release phasings, this
// package enumerates it, computing the *true* worst-case latency of
// every flow over the whole class and upgrading the oracle's verdict
// from "no violation found" to "provably none exists in this class".
//
// # The certified class
//
// The explored class is the canonical phasing class of the event-driven
// simulator: every flow releases strictly periodically with its first
// release at an offset in [0, Period), jitter injection disabled, over a
// fixed horizon. Three facts make enumeration of that class a proof:
//
//   - the simulator is a deterministic function of the offset vector —
//     sim.TieFree certifies that arbitration never admits a tie, so
//     there are no interleavings to enumerate per phasing (were that
//     gate ever to fail, Explore refuses rather than certify);
//   - the offset grid Π[0,Pᵢ) is finite and is a strict superset of
//     every phasing the randomised search can probe (the search draws
//     offsets from exactly these ranges), so "search ≤ exhaustive" is an
//     invariant, not a hope;
//   - the joint release pattern is periodic in the hyperperiod H from
//     cycle 0, so a horizon of H + 2·max(Dᵢ) shows every relative
//     release configuration a full deadline-window of observation
//     (see Space.SuggestedDuration and DESIGN.md §15 for the steady-
//     state argument and its schedulability precondition).
//
// Per-packet varying jitter is deliberately outside the class: a
// constant release delay is subsumed by the offset grid, while
// adversarial per-release jitter would blow the space up exponentially.
// Flows may still carry Jitter > 0 — the analytic bounds then include
// the jitter terms and only get looser, so "exhaustive ≤ bound" remains
// a sound (if conservative) invariant.
//
// # Reductions
//
// The raw grid is highly redundant, and Explore exploits two exact
// redundancies by default (Config.Reduce, DESIGN.md §15):
//
//   - Shift-symmetry quotient: a phasing whose earliest offset is δ > 0
//     is the phasing shifted by −δ observed δ cycles later, so only the
//     vectors with min offset 0 — Π Pᵢ − Π (Pᵢ−1) of the Π Pᵢ — need
//     simulating; every worst case, censored packet and deadline miss
//     of the grid is witnessed by a representative.
//   - Contention-cluster decomposition: flows in different connected
//     components of the interference graph over S^D ∪ S^I
//     (core.Sets.Clusters) provably never interact in the simulator
//     (sim.Restrict), so each cluster's sub-grid is explored alone and
//     the multiplicative joint grid collapses into a sum.
//
// Both reductions preserve worst cases, witnesses (de-canonicalised to
// ordinary grid points on report), per-flow censor flags and Proven
// verdicts exactly; property tests certify them against the unreduced
// grid, and ReduceNone retains the raw enumeration bit-for-bit as the
// differential baseline.
//
// # Busy-period cut
//
// A stride-1 pass simulates each phasing only to its first idle
// instant, the first cycle after the first release at which every
// released packet has been delivered (sim.Engine.RunBusyPeriod). The
// engine is deterministic and tie-free, so from an idle instant t the
// rest of the run depends only on the vector of next releases minus
// t, a grid point whose shift representative is explored too, with a
// horizon at least as long. Every busy period of every full-horizon
// run is therefore the first busy period of an explored
// representative, and per-flow worst cases and Proven verdicts are
// those of full-horizon runs (DESIGN.md §15). Strided sampling and
// refinement skip representatives, so they keep full-horizon runs.
//
// # Budgets and truncation
//
// Exploration is bounded twice: MaxStates caps the number of phasings
// simulated (exceeding it either fails or, with AllowTruncated, falls
// back to deterministic stride sampling plus local refinement), and an
// optional Context cancels long runs. Either truncation is reported
// explicitly — Result.Complete is false, Result.Truncation says why, and
// Result.Proven never claims a proof for a truncated run. Truncated
// results remain valid lower bounds on the true worst case and any
// bound exceedance they witness is a real violation.
//
// Each group's sampled phasings are one batch of a sim.Phasings
// evaluator, which fans them out over warm per-worker engines and folds
// per-flow maxima to the lowest enumeration index, so the Result is
// bit-identical at any worker count. internal/oracle wires Explore in
// as the exhaustive-divergent invariant class; cmd/nocfuzz's exhaust
// subcommand drives whole matrices of small configurations through it.
package exhaustive

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
)

const (
	// MaxFlows bounds the flow-set size Explore accepts. The grid is the
	// product of the periods, so the limit keeps "exhaustive" honest:
	// beyond a handful of flows no budget reaches the full grid and the
	// proof claim would silently degrade into sampling.
	MaxFlows = 4
	// MaxNodes bounds the platform size (2×2 meshes and 1×N lines up to
	// four nodes). Larger platforms are the randomised oracle's job.
	MaxNodes = 4
	// DefaultMaxStates is the state budget used when Config.MaxStates is
	// zero: about a million phasings. A proof pays one busy period per
	// phasing, not a whole horizon, so on typical tiny configurations
	// that is a few seconds of single-core work at most.
	DefaultMaxStates = 1 << 20
	// DefaultDedupCap bounds the visited set of the refinement pass (see
	// Config.DedupCap).
	DefaultDedupCap = 1 << 16
)

// ClusterSpace sizes one contention cluster's share of the state space.
type ClusterSpace struct {
	// Flows lists the cluster's member flow indices, ascending.
	Flows []int
	// GridSize is the cluster's raw offset grid, Π Periodᵢ over members.
	GridSize int64
	// QuotientSize counts the cluster's shift-symmetry representatives,
	// Π Pᵢ − Π (Pᵢ−1): the vectors with min offset 0. A solo flow has
	// exactly one (offset 0).
	QuotientSize int64
}

// Space describes the state space of one system before exploring it:
// how many phasings the full grid holds, how far the reductions shrink
// it, and how long a horizon shows every phasing. Plan computes it;
// Explore embeds the same numbers in its Result.
type Space struct {
	// GridSize is the number of canonical phasings, Π Periodᵢ over all
	// flows — the raw, unreduced state space.
	GridSize int64
	// ReducedGridSize is the number of phasings the default reduction
	// (ReduceAll) enumerates: Σ over contention clusters of their
	// shift-symmetry quotients. SizeUnder reports the other modes.
	ReducedGridSize int64
	// Clusters are the connected components of the interference graph
	// over S^D ∪ S^I (core.Sets.Clusters), ordered by smallest member.
	// Flows in different clusters provably never interact, so the joint
	// grid factorises across them.
	Clusters []ClusterSpace
	// Hyperperiod is lcm(Periodᵢ): the joint release pattern of any
	// phasing repeats with this period from cycle 0.
	Hyperperiod noc.Cycles
	// MaxDeadline is the largest flow deadline, the observation slack
	// appended to the horizon.
	MaxDeadline noc.Cycles
	// SuggestedDuration is the auto-selected horizon,
	// Hyperperiod + 2·MaxDeadline + 1: releases in the second
	// deadline-window-aligned hyperperiod repeat the steady-state
	// configurations and still complete inside the horizon when the
	// system is schedulable.
	SuggestedDuration noc.Cycles
}

// SizeUnder returns the number of phasings Explore enumerates at stride
// 1 under reduction mode r. Callers budgeting an exploration (the
// oracle's skip decision) must size against the mode they will run, not
// the raw grid — that is the whole point of the reductions.
func (sp Space) SizeUnder(r Reduction) int64 {
	switch r {
	case ReduceNone:
		return sp.GridSize
	case ReduceClusters:
		var s int64
		for _, c := range sp.Clusters {
			s += c.GridSize
		}
		return s
	case ReduceSymmetry:
		// Whole-vector quotient: Π Pᵢ − Π (Pᵢ−1) over all flows, the
		// all-nonzero product being the product of the per-cluster ones.
		rest := int64(1)
		for _, c := range sp.Clusters {
			rest *= c.GridSize - c.QuotientSize
		}
		return sp.GridSize - rest
	}
	var s int64
	for _, c := range sp.Clusters {
		s += c.QuotientSize
	}
	return s
}

// Plan sizes the state space of sys without exploring it: callers use
// it to decide whether a configuration fits an exhaustive budget (the
// oracle skips the invariant, loudly, when it does not). The error
// reports structural limits — too many flows or nodes, an arbitration
// tie, arithmetic overflow of the grid or horizon — not budget
// overruns, which are Explore's to enforce.
func Plan(sys *traffic.System) (Space, error) {
	var sp Space
	n := sys.NumFlows()
	if n > MaxFlows {
		return sp, fmt.Errorf("exhaustive: %d flows exceed the limit of %d", n, MaxFlows)
	}
	if nodes := sys.Topology().NumNodes(); nodes > MaxNodes {
		return sp, fmt.Errorf("exhaustive: %d nodes exceed the limit of %d", nodes, MaxNodes)
	}
	if ok, reason := sim.TieFree(sys); !ok {
		return sp, fmt.Errorf("exhaustive: interleavings are not enumerable: %s", reason)
	}
	sp.GridSize = 1
	sp.Hyperperiod = 1
	for i := 0; i < n; i++ {
		f := sys.Flow(i)
		p := int64(f.Period)
		if sp.GridSize > math.MaxInt64/p {
			return sp, fmt.Errorf("exhaustive: phasing grid overflows int64 (periods too large)")
		}
		sp.GridSize *= p
		h := lcm(sp.Hyperperiod, f.Period)
		if h <= 0 {
			return sp, fmt.Errorf("exhaustive: hyperperiod overflows int64 (periods too large)")
		}
		sp.Hyperperiod = h
		if f.Deadline > sp.MaxDeadline {
			sp.MaxDeadline = f.Deadline
		}
	}
	// Cluster-grid sums can exceed the product by up to MaxFlows−1
	// states (a+b ≤ ab+1 for a,b ≥ 1), so keep that much headroom.
	if sp.GridSize > math.MaxInt64-MaxFlows {
		return sp, fmt.Errorf("exhaustive: phasing grid overflows int64 (periods too large)")
	}
	if sp.MaxDeadline > (math.MaxInt64-1)/2 ||
		sp.Hyperperiod > noc.Cycles(math.MaxInt64)-(2*sp.MaxDeadline+1) {
		return sp, fmt.Errorf("exhaustive: suggested horizon overflows int64 (periods too large)")
	}
	sp.SuggestedDuration = sp.Hyperperiod + 2*sp.MaxDeadline + 1
	for _, members := range core.BuildSets(sys).Clusters() {
		c := ClusterSpace{Flows: members, GridSize: 1}
		rest := int64(1)
		for _, i := range members {
			p := int64(sys.Flow(i).Period)
			c.GridSize *= p
			rest *= p - 1
		}
		c.QuotientSize = c.GridSize - rest
		sp.Clusters = append(sp.Clusters, c)
	}
	sp.ReducedGridSize = sp.SizeUnder(ReduceAll)
	return sp, nil
}

func gcd(a, b noc.Cycles) noc.Cycles {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// lcm returns the least common multiple, or a non-positive value on
// int64 overflow.
func lcm(a, b noc.Cycles) noc.Cycles {
	g := gcd(a, b)
	q := a / g
	if q != 0 && b > math.MaxInt64/q {
		return -1
	}
	return q * b
}

// Config parameterises one exploration. The zero value explores the
// fully-reduced state space at stride 1 (a proof, when it fits
// DefaultMaxStates) with the auto horizon and all CPUs.
type Config struct {
	// Duration is the simulation horizon per phasing (a stride-1 run
	// ends earlier when its first busy period does); 0 selects
	// Space.SuggestedDuration. Shorter horizons weaken the certified
	// class ("worst within Duration"), never the chain invariants — the
	// comparison search must simply run the same horizon.
	Duration noc.Cycles
	// Reduce selects the state-space reductions (see Reduction). The
	// zero value is ReduceAll: both reductions are exact, so they are
	// on unless a differential run switches them off.
	Reduce Reduction
	// Stride samples every Stride-th enumerated state when > 1. A
	// strided run is explicitly NOT a proof (Complete stays false); it
	// exists for configurations whose state space exceeds any budget,
	// paired with the refinement pass around each flow's best phasing.
	Stride int64
	// MaxStates caps the number of phasings simulated in the systematic
	// pass (0 = DefaultMaxStates). When the strided state space still
	// exceeds it, Explore fails — or, with AllowTruncated, raises the
	// stride deterministically and reports the truncation.
	MaxStates int64
	// AllowTruncated permits the budget to degrade the run into stride
	// sampling instead of returning an error. The result is then marked
	// Complete=false with the reason in Truncation.
	AllowTruncated bool
	// Workers bounds the engines simulating phasings at once
	// (0 = GOMAXPROCS). The result is bit-identical for any value.
	Workers int
	// Context, when non-nil, cancels a long exploration. A cancelled run
	// returns the states merged so far, marked truncated; which states
	// those are depends on timing, so only state-budget truncation is
	// deterministic.
	Context context.Context
	// DedupCap bounds the refinement pass's visited set (0 =
	// DefaultDedupCap). The set stores exact encoded offset vectors —
	// internal/canon-style length-stable little-endian keys — so a hit
	// can never alias two distinct phasings; overflowing the cap only
	// costs duplicate simulations, never correctness.
	DedupCap int
}

// FlowResult is one flow's exhaustive outcome.
type FlowResult struct {
	// Worst is the maximum observed latency over every explored phasing,
	// or -1 when no packet of the flow ever completed.
	Worst noc.Cycles
	// Offsets is the first (lowest enumeration index) phasing whose
	// explored run reaches Worst: on a stride-1 pass, the first whose
	// first busy period does. It is always an ordinary point of the raw
	// grid — canonical representatives are grid members and cluster
	// witnesses embed with zero offsets for the other clusters — so it
	// replays directly through sim.Run on the full system, to Worst at
	// the explored Duration.
	Offsets []noc.Cycles
	// Censored counts explored phasings in which a packet of this flow
	// released at least a deadline before the horizon failed to complete
	// — direct evidence of a latency beyond the deadline that the
	// horizon cut off. On a stride-1 pass only a run whose first busy
	// period reaches the horizon can censor: a packet a full-horizon run
	// censors may instead complete late in the representative whose
	// first busy period holds it, and count as a deadline miss. The flag
	// Censored > 0 || DeadlineMisses > 0 is the same either way. It
	// voids the proof claim for this flow and every lower-priority one
	// (see Result.Proven).
	Censored int64
	// DeadlineMisses totals observed deadline misses across explored
	// phasings (completed packets whose latency exceeded the deadline).
	DeadlineMisses int64
}

// Reductions reports which state-space reductions an exploration ran
// under and what they saved. Reduced and raw runs agree on every worst
// case, witness quality, censor flag and Proven verdict; only these
// numbers (and the wall clock) differ.
type Reductions struct {
	// Mode is the reduction mode the exploration applied.
	Mode Reduction
	// Clusters is the number of independently-explored flow groups: the
	// contention-cluster count when decomposition is on, else 1.
	Clusters int
	// RawGridSize echoes Space.GridSize, the unreduced Π Periodᵢ.
	RawGridSize int64
	// ReducedGridSize is the stride-1 enumeration size under Mode
	// (Space.SizeUnder(Mode)).
	ReducedGridSize int64
	// StatesSaved is RawGridSize − ReducedGridSize: simulations the
	// reductions made unnecessary without weakening the proof.
	StatesSaved int64
	// SymmetryFactor is the multiplicative saving attributable to the
	// shift-symmetry quotient alone, at the run's cluster setting
	// (states without the quotient over states with it); 1 when the
	// quotient is off.
	SymmetryFactor float64
}

// Result is the outcome of one exploration.
type Result struct {
	// Flows holds per-flow worst cases, indexed like the system's flows.
	Flows []FlowResult
	// Space echoes the state-space plan of the explored system.
	Space Space
	// Reductions reports the reduction mode and its savings.
	Reductions Reductions
	// Duration is the horizon every phasing was simulated for; on a
	// stride-1 pass a run ends earlier when its first busy period does.
	Duration noc.Cycles
	// Stride is the effective sampling stride of the systematic pass
	// (1 = full enumeration of the reduced space).
	Stride int64
	// Explored counts the systematic pass's sampled states;
	// Refined counts the refinement pass's additional simulations;
	// States = Explored + Refined is everything simulated.
	Explored, Refined, States int64
	// Deduped counts refinement candidates skipped because they were
	// provably already simulated (on the sampled lattice or in the
	// visited set).
	Deduped int64
	// Complete reports whether the reduced state space was enumerated
	// at stride 1 without cancellation — the precondition of every
	// proof claim. The reductions are exact, so a complete reduced run
	// proves exactly what a complete raw run proves.
	Complete bool
	// Truncation is empty for complete runs; otherwise it states what
	// was cut (stride sampling, state budget, cancellation) so callers
	// can never mistake a truncated run for a proof.
	Truncation string

	priorities []int
}

// Proven reports whether Flows[i].Worst is the provable true worst case
// of flow i over the certified class: the run must be Complete and no
// flow at equal-or-higher priority (including i itself) may have
// censored packets or deadline misses — the steady-state horizon
// argument presumes the interferer subsystem actually meets its
// deadlines. A truncated or censored run still yields valid *lower*
// bounds (and hence valid violations), just no proof of absence.
func (r *Result) Proven(i int) bool {
	if !r.Complete {
		return false
	}
	for j := range r.Flows {
		if r.priorities[j] <= r.priorities[i] &&
			(r.Flows[j].Censored > 0 || r.Flows[j].DeadlineMisses > 0) {
			return false
		}
	}
	return true
}

// group is one independently-explorable flow subset with its share of
// the concatenated enumeration index space [base, base+e.size). With
// cluster decomposition off there is a single group holding every flow
// and the original System; with it on, each contention cluster gets a
// sim.Restrict sub-system, which simulates the cluster's flows
// bit-identically to the full system (the flows provably never meet a
// flow outside the cluster on any link). All groups share one global
// Duration — the full system's horizon — so the certified class is the
// same one an unreduced run certifies.
type group struct {
	flows   []int // member flow indices in the full system
	sys     *traffic.System
	e       enum
	base    int64
	rawSize int64
	periods []int64
}

// buildGroups materialises the reduction mode's flow groups and their
// enumerators. It also returns the flow→group index mapping.
func buildGroups(sys *traffic.System, sp Space, mode Reduction) ([]group, []int, error) {
	n := sys.NumFlows()
	var members [][]int
	if mode.clusters() && len(sp.Clusters) > 1 {
		for _, c := range sp.Clusters {
			members = append(members, c.Flows)
		}
	} else {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		members = [][]int{all}
	}
	groups := make([]group, len(members))
	groupOf := make([]int, n)
	var base int64
	for gi, flows := range members {
		g := &groups[gi]
		g.flows = flows
		g.sys = sys
		if len(flows) != n {
			sub, err := sim.Restrict(sys, flows)
			if err != nil {
				return nil, nil, fmt.Errorf("exhaustive: cluster restriction: %w", err)
			}
			g.sys = sub
		}
		g.periods = make([]int64, len(flows))
		g.rawSize = 1
		for k, fi := range flows {
			f := sys.Flow(fi)
			g.periods[k] = int64(f.Period)
			g.rawSize *= g.periods[k]
			groupOf[fi] = gi
		}
		g.e = newEnum(g.periods, mode.symmetry())
		g.base = base
		base += g.e.size
	}
	return groups, groupOf, nil
}

// reductionStats derives the Reductions record for a run over groups.
func reductionStats(sp Space, mode Reduction, groups []group, total int64) Reductions {
	red := Reductions{
		Mode:            mode,
		Clusters:        len(groups),
		RawGridSize:     sp.GridSize,
		ReducedGridSize: total,
		StatesSaved:     sp.GridSize - total,
		SymmetryFactor:  1,
	}
	if mode.symmetry() && total > 0 {
		var raw int64
		for i := range groups {
			raw += groups[i].rawSize
		}
		red.SymmetryFactor = float64(raw) / float64(total)
	}
	return red
}

// Explore enumerates the phasing state space of sys — reduced per
// cfg.Reduce — and returns every flow's worst case over the full
// canonical phasing class. It is deterministic in (sys, cfg) —
// including at any Workers value — except for Context-cancelled runs,
// whose partial coverage depends on timing. Structural errors (limits,
// ties, an over-budget state space without AllowTruncated) return a
// nil Result.
func Explore(sys *traffic.System, cfg Config) (*Result, error) {
	sp, err := Plan(sys)
	if err != nil {
		return nil, err
	}
	n := sys.NumFlows()
	res := &Result{
		Flows:      make([]FlowResult, n),
		Space:      sp,
		Duration:   cfg.Duration,
		priorities: make([]int, n),
	}
	for i := 0; i < n; i++ {
		res.Flows[i].Worst = -1
		res.Flows[i].Offsets = make([]noc.Cycles, n)
		res.priorities[i] = sys.Flow(i).Priority
	}
	if res.Duration <= 0 {
		res.Duration = sp.SuggestedDuration
	}
	groups, groupOf, err := buildGroups(sys, sp, cfg.Reduce)
	if err != nil {
		return nil, err
	}
	lastG := &groups[len(groups)-1]
	total := lastG.base + lastG.e.size
	res.Reductions = reductionStats(sp, cfg.Reduce, groups, total)

	maxStates := cfg.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	stride := cfg.Stride
	if stride < 1 {
		stride = 1
	}
	if stride > 1 {
		res.Truncation = fmt.Sprintf("stride %d sampling requested: %d of %d phasings", stride, ceilDiv(total, stride), total)
	}
	if ceilDiv(total, stride) > maxStates {
		if !cfg.AllowTruncated {
			if total != sp.GridSize {
				return nil, fmt.Errorf("exhaustive: reduced state space of %d phasings (raw grid %d) exceeds the state budget of %d (set AllowTruncated for stride sampling)",
					total, sp.GridSize, maxStates)
			}
			return nil, fmt.Errorf("exhaustive: grid of %d phasings exceeds the state budget of %d (set AllowTruncated for stride sampling)",
				total, maxStates)
		}
		stride = ceilDiv(total, maxStates)
		res.Truncation = fmt.Sprintf("state budget %d: stride raised to %d, sampling %d of %d phasings",
			maxStates, stride, ceilDiv(total, stride), total)
	}
	res.Stride = stride
	res.Explored = ceilDiv(total, stride)

	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	// One evaluator per group, shared by the systematic pass and the
	// refinement. Each group's sampled indices k·stride in
	// [base, base+size) are one batch; a flow belongs to exactly one
	// group, so its batch's fold is its result.
	evals := make([]*sim.Phasings, len(groups))
	cancelled := false
	for gi := range groups {
		g := &groups[gi]
		k0 := ceilDiv(g.base, stride)
		runs := ceilDiv(g.base+g.e.size, stride) - k0
		if runs <= 0 {
			continue
		}
		evals[gi] = sim.NewPhasings(g.sys, cfg.Workers)
		decode := func(i int, off []noc.Cycles) { g.e.decode((k0+int64(i))*stride-g.base, off) }
		// A stride-1 pass enumerates every representative, so each run
		// can stop at its first idle instant: every later busy period is
		// the first busy period of another representative (DESIGN.md
		// §15). Strided sampling cannot rely on that.
		eval := evals[gi].Eval
		if stride == 1 {
			eval = evals[gi].EvalBusyPeriods
		}
		fold, err := eval(ctx, sim.Config{Duration: res.Duration}, int(runs), decode)
		if err != nil && (fold == nil || ctx.Err() == nil) {
			return nil, fmt.Errorf("exhaustive: exploration failed: %w", err)
		}
		res.States += int64(fold.Runs)
		// De-canonicalise witnesses: decode the winning group-local
		// vector and embed it into a full-length phasing (zero offsets
		// for the other groups — any value would do, those flows provably
		// cannot affect these). The result is an ordinary grid point
		// replaying to the reported worst.
		loc := make([]noc.Cycles, len(g.flows))
		for fk, i := range g.flows {
			fr := &res.Flows[i]
			fr.Worst, fr.Censored, fr.DeadlineMisses = fold.Worst[fk], fold.Censored[fk], fold.Misses[fk]
			if fold.At[fk] >= 0 {
				decode(fold.At[fk], loc)
				for k, fj := range g.flows {
					fr.Offsets[fj] = loc[k]
				}
			}
		}
		if err != nil {
			cancelled = true
			res.Truncation = fmt.Sprintf("cancelled mid-exploration: %v; partial coverage only", err)
			break
		}
	}

	if stride > 1 && !cancelled {
		refine(cfg, res, groups, groupOf, evals)
	}
	res.Complete = stride == 1 && !cancelled
	return res, nil
}

// refine runs the local-refinement pass of a strided exploration:
// around every flow's best-known phasing, each coordinate of the flow's
// own group is swept over the stride-wide window the sampling skipped
// (coordinates of other groups provably cannot move the flow's worst
// case). Candidates already on the sampled lattice, or already tried by
// an overlapping window, are deduplicated — the former exactly by
// enumeration-rank arithmetic, the latter by the bounded visited set.
// Swept vectors may leave the canonical representative set; they are
// still ordinary class members, so their latencies are valid lower
// bounds, which is all a truncated run reports. Each flow's candidates,
// generated in a fixed sweep order, are one batch of its group's
// evaluator, and the batches run in flow order, so strided results stay
// deterministic at any worker count.
func refine(cfg Config, res *Result, groups []group, groupOf []int, evals []*sim.Phasings) {
	dedupCap := cfg.DedupCap
	if dedupCap <= 0 {
		dedupCap = DefaultDedupCap
	}
	visited := make(map[string]struct{}, 1024)
	var cands []noc.Cycles // the current flow's candidates, back to back
	for target := range res.Flows {
		if res.Flows[target].Worst < 0 {
			continue // no witness to refine around
		}
		gi := groupOf[target]
		g := &groups[gi]
		m := len(g.flows)
		// Group-local projection of the target's best-known witness.
		base := make([]noc.Cycles, m)
		for k, fi := range g.flows {
			base[k] = res.Flows[target].Offsets[fi]
		}
		// Keys carry the group index so equal-length vectors of
		// different groups can never alias in the visited set.
		keyBuf := make([]byte, 1+8*m)
		keyBuf[0] = byte(gi)
		off := make([]noc.Cycles, m)
		cands = cands[:0]
		for fk := range g.flows {
			for d := int64(1); d < res.Stride; d++ {
				for _, sign := range [2]int64{1, -1} {
					copy(off, base)
					p := g.periods[fk]
					off[fk] = noc.Cycles(((int64(base[fk])+sign*d)%p + p) % p)
					if r := g.e.encode(off); r >= 0 && (g.base+r)%res.Stride == 0 {
						res.Deduped++ // on the sampled lattice: already simulated
						continue
					}
					for k, o := range off {
						binary.LittleEndian.PutUint64(keyBuf[1+8*k:], uint64(o))
					}
					if _, dup := visited[string(keyBuf)]; dup {
						res.Deduped++
						continue
					}
					if len(visited) < dedupCap {
						visited[string(keyBuf)] = struct{}{}
					}
					cands = append(cands, off...)
				}
			}
		}
		// Not cancellable: a refinement cut short by cfg.Context would
		// leave a strided result that depends on timing without saying so.
		fold, err := evals[gi].Eval(context.Background(), sim.Config{Duration: res.Duration}, len(cands)/m,
			func(i int, o []noc.Cycles) { copy(o, cands[i*m:]) })
		if err != nil {
			return // validated inputs cannot fail; keep partial refinement
		}
		res.Refined += int64(fold.Runs)
		res.States += int64(fold.Runs)
		for k, fi := range g.flows {
			fr := &res.Flows[fi]
			if fold.Worst[k] > fr.Worst {
				fr.Worst = fold.Worst[k]
				for kk, fj := range g.flows {
					fr.Offsets[fj] = cands[fold.At[k]*m+kk]
				}
			}
			fr.Censored += fold.Censored[k]
			fr.DeadlineMisses += fold.Misses[k]
		}
	}
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

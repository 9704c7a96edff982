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
// Each phasing is simulated only to its first idle instant, the first
// cycle after the first release at which every released packet has
// been delivered (sim.Engine.RunBusyPeriod). The engine is
// deterministic and tie-free, so from an idle instant t the rest of
// the run depends only on the vector of next releases minus t, a grid
// point whose shift representative is explored too, with a horizon at
// least as long. Every busy period of every full-horizon run is
// therefore the first busy period of an explored representative, and
// per-flow worst cases and Proven verdicts are those of full-horizon
// runs (DESIGN.md §15).
//
// # Budget
//
// MaxStates caps the number of phasings simulated. Explore either
// enumerates the whole reduced space or, when that space exceeds the
// budget, refuses with an error: every Result it returns is Complete.
//
// Each group's representatives are one batch of a sim.Phasings evaluator,
// which fans them out over warm per-worker engines and folds per-flow
// maxima to the lowest enumeration index, so the Result is
// bit-identical at any worker count. internal/oracle wires Explore in
// as the exhaustive-divergent invariant class; cmd/nocfuzz's exhaust
// subcommand drives whole matrices of small configurations through it.
package exhaustive

import (
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

// SizeUnder returns the number of phasings Explore enumerates under
// reduction mode r. Callers budgeting an exploration (the oracle's skip
// decision) must size against the mode they will run, not the raw grid —
// that is the whole point of the reductions.
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
// tie, arithmetic overflow of the grid or horizon, or a horizon the
// simulator would refuse — not budget overruns, which are Explore's to
// enforce.
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
	if sp.Hyperperiod = sys.Hyperperiod(); sp.Hyperperiod == noc.MaxCycles {
		return sp, fmt.Errorf("exhaustive: hyperperiod overflows int64 (periods too large)")
	}
	for i := 0; i < n; i++ {
		f := sys.Flow(i)
		p := int64(f.Period)
		if sp.GridSize > math.MaxInt64/p {
			return sp, fmt.Errorf("exhaustive: phasing grid overflows int64 (periods too large)")
		}
		sp.GridSize *= p
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
	// The simulator's own horizon rule: releases advance by Tᵢ from
	// instants below the horizon, are delayed by up to Jᵢ and take Cᵢ.
	for i := 0; i < n; i++ {
		f := sys.Flow(i)
		if noc.SatAdd(sp.SuggestedDuration, noc.SatAdd(noc.SatAdd(f.Period, f.Jitter), sys.C(i))) == noc.MaxCycles {
			return sp, fmt.Errorf("exhaustive: flow %d: suggested horizon %d + T %d + J %d + C %d overflows int64 (periods too large)",
				i, sp.SuggestedDuration, f.Period, f.Jitter, sys.C(i))
		}
	}
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

// Config parameterises one exploration. The zero value explores the
// fully-reduced state space (a proof, when it fits DefaultMaxStates)
// with the auto horizon and all CPUs.
type Config struct {
	// Duration is the simulation horizon per phasing (a run ends earlier
	// when its first busy period does); 0 selects
	// Space.SuggestedDuration. Shorter horizons weaken the certified
	// class ("worst within Duration"), never the chain invariants — the
	// comparison search must simply run the same horizon.
	Duration noc.Cycles
	// Reduce selects the state-space reductions (see Reduction). The
	// zero value is ReduceAll: both reductions are exact, so they are
	// on unless a differential run switches them off.
	Reduce Reduction
	// MaxStates caps the number of phasings simulated
	// (0 = DefaultMaxStates). Explore fails when the reduced state
	// space exceeds it.
	MaxStates int64
	// Workers bounds the engines simulating phasings at once
	// (0 = GOMAXPROCS). The result is bit-identical for any value.
	Workers int
}

// FlowResult is one flow's exhaustive outcome.
type FlowResult struct {
	// Worst is the maximum observed latency over every explored phasing,
	// or -1 when no packet of the flow ever completed.
	Worst noc.Cycles
	// Offsets is the first (lowest enumeration index) phasing whose
	// first busy period reaches Worst. It is always an ordinary point of the raw
	// grid — canonical representatives are grid members and cluster
	// witnesses embed with zero offsets for the other clusters — so it
	// replays directly through sim.Run on the full system, to Worst at
	// the explored Duration.
	Offsets []noc.Cycles
	// Censored counts explored phasings in which a packet of this flow
	// released at least a deadline before the horizon failed to complete
	// — direct evidence of a latency beyond the deadline that the
	// horizon cut off. Only a run whose first busy period reaches the
	// horizon can censor: a packet a full-horizon run
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
	// ReducedGridSize is the enumeration size under Mode
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
	// Duration is the horizon every phasing was simulated for; a run
	// ends earlier when its first busy period does.
	Duration noc.Cycles
	// States counts the phasings simulated: the whole reduced space,
	// Reductions.ReducedGridSize.
	States int64
	// Complete is true on every Result Explore returns: the reduced
	// state space was enumerated in full, the precondition of every
	// proof claim. The reductions are exact, so a reduced run proves
	// exactly what a raw run proves.
	Complete bool

	priorities []int
}

// Proven reports whether Flows[i].Worst is the provable true worst case
// of flow i over the certified class: no flow at equal-or-higher
// priority (including i itself) may have censored packets or deadline
// misses — the steady-state horizon argument presumes the interferer
// subsystem actually meets its deadlines. A censored run still yields valid *lower* bounds (and
// hence valid violations), just no proof of absence.
func (r *Result) Proven(i int) bool {
	for j := range r.Flows {
		if r.priorities[j] <= r.priorities[i] &&
			(r.Flows[j].Censored > 0 || r.Flows[j].DeadlineMisses > 0) {
			return false
		}
	}
	return true
}

// group is one independently-explorable flow subset and the enumerator
// of its offset grid. With cluster decomposition off there is a single
// group holding every flow and the original System; with it on, each
// contention cluster gets a sim.Restrict sub-system, which simulates the
// cluster's flows bit-identically to the full system (the flows provably
// never meet a flow outside the cluster on any link). All groups share
// one global Duration — the full system's horizon — so the certified
// class is the same one an unreduced run certifies.
type group struct {
	flows   []int // member flow indices in the full system
	sys     *traffic.System
	e       enum
	rawSize int64
}

// buildGroups materialises the reduction mode's flow groups and their
// enumerators.
func buildGroups(sys *traffic.System, sp Space, mode Reduction) ([]group, error) {
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
	for gi, flows := range members {
		g := &groups[gi]
		g.flows = flows
		g.sys = sys
		if len(flows) != n {
			sub, err := sim.Restrict(sys, flows)
			if err != nil {
				return nil, fmt.Errorf("exhaustive: cluster restriction: %w", err)
			}
			g.sys = sub
		}
		periods := make([]int64, len(flows))
		g.rawSize = 1
		for k, fi := range flows {
			periods[k] = int64(sys.Flow(fi).Period)
			g.rawSize *= periods[k]
		}
		g.e = newEnum(periods, mode.symmetry())
	}
	return groups, nil
}

// reductionStats derives the Reductions record for a run over groups.
func reductionStats(sp Space, mode Reduction, groups []group) Reductions {
	var total, raw int64
	for i := range groups {
		total += groups[i].e.size
		raw += groups[i].rawSize
	}
	red := Reductions{
		Mode:            mode,
		Clusters:        len(groups),
		RawGridSize:     sp.GridSize,
		ReducedGridSize: total,
		StatesSaved:     sp.GridSize - total,
		SymmetryFactor:  1,
	}
	if mode.symmetry() && total > 0 {
		red.SymmetryFactor = float64(raw) / float64(total)
	}
	return red
}

// Explore enumerates the phasing state space of sys — reduced per
// cfg.Reduce — and returns every flow's worst case over the full
// canonical phasing class. It is deterministic in (sys, cfg), including
// at any Workers value. Structural errors (limits, ties) and a reduced
// state space beyond cfg.MaxStates return a nil Result.
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
		Complete:   true,
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
	groups, err := buildGroups(sys, sp, cfg.Reduce)
	if err != nil {
		return nil, err
	}
	res.Reductions = reductionStats(sp, cfg.Reduce, groups)

	maxStates := cfg.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	if total := res.Reductions.ReducedGridSize; total > maxStates {
		return nil, fmt.Errorf("exhaustive: reduced state space of %d phasings (raw grid %d) exceeds the state budget of %d",
			total, sp.GridSize, maxStates)
	}

	// Each group's representatives are one batch of its own evaluator; a
	// flow belongs to exactly one group, so its batch's fold is its
	// result. Every run stops at its first idle instant: every later
	// busy period is the first busy period of another representative
	// (DESIGN.md §15).
	for gi := range groups {
		g := &groups[gi]
		decode := func(i int, off []noc.Cycles) { g.e.decode(int64(i), off) }
		fold, err := sim.NewPhasings(g.sys, cfg.Workers).EvalBusyPeriods(sim.Config{Duration: res.Duration}, int(g.e.size), decode)
		if err != nil {
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
	}
	return res, nil
}

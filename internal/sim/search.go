package sim

import (
	"fmt"
	"math/rand"
	"slices"

	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
)

// SearchConfig parameterises SearchWorstCase, a randomised search for
// release phasings that maximise one flow's observed latency. Where
// SweepOffsets exhaustively varies a single flow's phase (tractable for
// the didactic example), SearchWorstCase explores the joint phasing
// space of all flows: random restarts followed by greedy coordinate
// refinement of each flow's offset.
//
// The result is a lower bound on the true worst case (as any simulation
// is); its value is adversarial testing of the analytic bounds — every
// latency it finds must stay below R_IBN, and it routinely exceeds the
// unsafe SB/SLA bounds in MPB scenarios.
type SearchConfig struct {
	// Base is the simulation configuration (Duration must be set;
	// Offsets, if non-nil, seed the first probe).
	Base Config
	// Target is the flow whose latency is maximised.
	Target int
	// Restarts is the number of random starting phasings (default 8).
	Restarts int
	// RefineSteps bounds the coordinate-refinement passes per restart
	// (default 2).
	RefineSteps int
	// ProbesPerFlow is the number of offsets tried per flow per
	// refinement pass (default 8).
	ProbesPerFlow int
	// Seed makes the search deterministic.
	Seed int64
	// Workers bounds the engines evaluating probe batches concurrently;
	// 0 (or negative) selects GOMAXPROCS, 1 forces a serial search. The
	// result is identical for any value — only wall-clock time changes —
	// so callers that already parallelise outside (the oracle fans out
	// across target flows) set 1 to avoid oversubscription.
	Workers int
	// Rand, when non-nil, supplies every random choice of the search and
	// Seed is ignored. It lets a caller running many searches (the
	// verification oracle) thread one seeded generator through all of
	// them, so a reported worst case is reproducible from that seed
	// alone — the search has no other randomness source. The generator
	// is used from a single goroutine; it must not be shared with
	// concurrent searches.
	Rand *rand.Rand
	// Table, when non-nil, is the busy-period table the search's
	// jitter-free probes walk (DESIGN.md §10); searches of one system
	// may share it, concurrently too, to simulate each busy period once.
	// It also holds the restricted systems of the searches' influence
	// sets, with a table each. Nil gives the search a table of its own.
	// The result does not depend on it.
	Table *BusyPeriodTable

	// unrestricted makes the search simulate every flow, even when an
	// influence set would do. Only tests set it.
	unrestricted bool
}

// SearchResult reports the worst phasing found.
type SearchResult struct {
	// Worst is the maximum observed latency of the target flow.
	Worst noc.Cycles
	// Offsets is the phasing achieving it (the first restart's when no
	// target packet ever completed). Replaying it over the full horizon
	// observes exactly Worst for the target.
	Offsets []noc.Cycles
	// Runs counts the probes the search made, whether simulated,
	// walked through the busy-period table or resolved by the influence
	// set without a run.
	Runs int
}

// SearchWorstCase runs the randomised phasing search.
//
// The search is the simulator's hottest client — thousands of runs per
// invocation — so it recycles aggressively: every probe, restarts and
// refinement batches alike, is a batch of one Phasings evaluator that
// keeps one warm Engine per worker for the whole search, over fixed
// candidate-offset buffers. A probe costs zero allocations in steady
// state.
//
// Probes are target-scoped: each ends as soon as the target can no
// longer complete a packet inside Base.Duration, often long before the
// horizon, because the probe reads only the target's worst latency and
// that is final by then. A jitter-free probe of a system with a short
// hyperperiod or a small key space also walks the busy-period table:
// it applies the busy periods an earlier probe already simulated and
// fast-forwards a recurrence, simulating only the busy periods it has
// not seen and the one holding the target's last tick (DESIGN.md §10).
// On single-cycle links the probes also simulate only the target's
// influence set (see influence), since no other flow can move the
// target's latency: a refinement batch over a flow outside the set
// observes the current worst without a run, and every other probe runs
// on the restricted system (Restrict) with its offsets projected onto
// it. Table holds that system and its busy-period table, for every
// search of the same set (DESIGN.md §10).
//
// Runs still counts every probe. The result depends only on the
// configuration and seed, never on the worker count, the table or the
// restriction.
func SearchWorstCase(sys *traffic.System, cfg SearchConfig) (*SearchResult, error) {
	n := sys.NumFlows()
	if cfg.Target < 0 || cfg.Target >= n {
		return nil, fmt.Errorf("sim: search target %d out of range (%d flows)", cfg.Target, n)
	}
	if cfg.Base.Duration < 1 {
		return nil, fmt.Errorf("sim: search needs Base.Duration >= 1")
	}
	if cfg.Base.Offsets != nil && len(cfg.Base.Offsets) != n {
		return nil, fmt.Errorf("sim: search got %d base offsets for %d flows", len(cfg.Base.Offsets), n)
	}
	if cfg.Base.TraceWriter != nil {
		return nil, fmt.Errorf("sim: tracing is not supported during searches")
	}
	// Validated against sys, not the restricted system the probes may
	// run: a dropped flow's offset or horizon overflow is still an error.
	if err := validateConfig(sys, cfg.Base); err != nil {
		return nil, err
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 8
	}
	if cfg.RefineSteps <= 0 {
		cfg.RefineSteps = 2
	}
	if cfg.ProbesPerFlow <= 0 {
		cfg.ProbesPerFlow = 8
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}

	table := cfg.Table
	if table == nil {
		table = new(BusyPeriodTable)
	}
	// The probes simulate psys, sys itself or the restricted system of
	// the target's influence set, in which target is cfg.Target's index.
	psys, target, keep := sys, cfg.Target, influence(sys, cfg)
	inSet := func(int) bool { return true }
	if keep != nil {
		var err error
		if psys, table, err = table.restrict(sys, keep); err != nil {
			return nil, err
		}
		target, _ = slices.BinarySearch(keep, cfg.Target)
		inSet = func(f int) bool { _, ok := slices.BinarySearch(keep, f); return ok }
	}

	best := &SearchResult{Worst: -1, Offsets: make([]noc.Cycles, n)}

	// Candidate-offset buffers, reused for every batch (a restart probe
	// is a batch of one in slot 0), and one evaluator whose per-worker
	// engines stay warm across all batches. The candidates carry every
	// flow's offset, so the probes' base has none; setCand projects
	// them onto psys.
	cands := make([][]noc.Cycles, cfg.ProbesPerFlow)
	candStore := make([]noc.Cycles, cfg.ProbesPerFlow*n)
	for i := range cands {
		cands[i], candStore = candStore[:n:n], candStore[n:]
	}
	ph := NewPhasings(psys, cfg.Workers)
	probe := cfg.Base
	probe.Offsets = nil
	probe.stopFlow = target + 1
	probe.table = table
	setCand := func(i int, off []noc.Cycles) { copy(off, cands[i]) }
	if keep != nil {
		setCand = func(i int, off []noc.Cycles) {
			for k, f := range keep {
				off[k] = cands[i][f]
			}
		}
	}

	// evalBatch evaluates cands[0:k]: the target's largest latency and
	// the first candidate reaching it.
	evalBatch := func(k int) (noc.Cycles, int, error) {
		fold, err := ph.Eval(probe, k, setCand)
		if err != nil {
			return 0, 0, err
		}
		best.Runs += fold.Runs
		return fold.Worst[target], fold.At[target], nil
	}

	cur := make([]noc.Cycles, n)
	for restart := 0; restart < cfg.Restarts; restart++ {
		start := cands[0]
		if restart == 0 && cfg.Base.Offsets != nil {
			copy(start, cfg.Base.Offsets)
		} else {
			for i := 0; i < n; i++ {
				start[i] = noc.Cycles(rng.Int63n(int64(sys.Flow(i).Period)))
			}
			start[cfg.Target] = 0 // measure the target from a fixed phase
		}
		curWorst, _, err := evalBatch(1)
		if err != nil {
			return nil, err
		}
		copy(cur, start)
		for pass := 0; pass < cfg.RefineSteps; pass++ {
			improved := false
			for f := 0; f < n; f++ {
				if f == cfg.Target {
					continue
				}
				period := int64(sys.Flow(f).Period)
				if !inSet(f) {
					// f cannot move the target: every probe observes
					// curWorst, so none improves on cur.
					for range cfg.ProbesPerFlow {
						rng.Int63n(period)
					}
					best.Runs += cfg.ProbesPerFlow
					continue
				}
				for p := 0; p < cfg.ProbesPerFlow; p++ {
					copy(cands[p], cur)
					cands[p][f] = noc.Cycles(rng.Int63n(period))
				}
				w, at, err := evalBatch(cfg.ProbesPerFlow)
				if err != nil {
					return nil, err
				}
				if w > curWorst {
					curWorst = w
					copy(cur, cands[at])
					improved = true
				}
			}
			if !improved {
				break
			}
		}
		if restart == 0 || curWorst > best.Worst {
			best.Worst = curWorst
			copy(best.Offsets, cur)
		}
	}
	return best, nil
}

// influence returns the flows a search of cfg.Target must simulate, in
// index order: the target and, transitively, every flow of higher
// priority than a member that shares a link with it (the target's S^D,
// their S^D in turn, and so on; DESIGN.md §10, "Influence-restricted
// searches"). It returns
// nil, and the search simulates every flow, when the set is the whole
// system or when dropping the other flows could move the target:
//
//   - on links slower than one cycle, a lower-priority flit holds a
//     link for linkl cycles once it wins it, delaying a higher-priority
//     flit that becomes eligible meanwhile;
//   - with jitter injected, the flows share one jitter stream, so
//     dropping a jittered flow would shift the draws of the kept ones.
func influence(sys *traffic.System, cfg SearchConfig) []int {
	if cfg.unrestricted || sys.Topology().Config().LinkLatency != 1 {
		return nil
	}
	n := sys.NumFlows()
	onLink := make([][]int, sys.Topology().NumLinks())
	for i := range n {
		for _, l := range sys.Route(i) {
			onLink[l] = append(onLink[l], i)
		}
	}
	in := make([]bool, n)
	in[cfg.Target] = true
	for stack := []int{cfg.Target}; len(stack) > 0; {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range sys.Route(m) {
			for _, j := range onLink[l] {
				if !in[j] && sys.HigherPriority(j, m) {
					in[j] = true
					stack = append(stack, j)
				}
			}
		}
	}
	var keep []int
	for i := range n {
		if in[i] {
			keep = append(keep, i)
		} else if cfg.Base.InjectJitter && sys.Flow(i).Jitter > 0 {
			return nil
		}
	}
	if len(keep) == n {
		return nil
	}
	return keep
}

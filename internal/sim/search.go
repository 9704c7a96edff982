package sim

import (
	"context"
	"fmt"
	"math/rand"

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
	// Nil gives the search a table of its own. The result does not
	// depend on it.
	Table *BusyPeriodTable
}

// SearchResult reports the worst phasing found.
type SearchResult struct {
	// Worst is the maximum observed latency of the target flow.
	Worst noc.Cycles
	// Offsets is the phasing achieving it (the first restart's when no
	// target packet ever completed). Replaying it over the full horizon
	// observes exactly Worst for the target.
	Offsets []noc.Cycles
	// Runs counts simulations performed, early-stopped probes included.
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
// Runs still counts every probe. The result depends only on the
// configuration and seed, never on the worker count or the table.
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

	best := &SearchResult{Worst: -1, Offsets: make([]noc.Cycles, n)}

	// Candidate-offset buffers, reused for every batch (a restart probe
	// is a batch of one in slot 0), and one evaluator whose per-worker
	// engines stay warm across all batches. The candidates carry every
	// offset, so the probes' base has none.
	cands := make([][]noc.Cycles, cfg.ProbesPerFlow)
	candStore := make([]noc.Cycles, cfg.ProbesPerFlow*n)
	for i := range cands {
		cands[i], candStore = candStore[:n:n], candStore[n:]
	}
	ph := NewPhasings(sys, cfg.Workers)
	probe := cfg.Base
	probe.Offsets = nil
	probe.stopFlow = cfg.Target + 1
	probe.table = cfg.Table
	if probe.table == nil {
		probe.table = new(BusyPeriodTable)
	}
	setCand := func(i int, off []noc.Cycles) { copy(off, cands[i]) }

	// evalBatch evaluates cands[0:k]: the target's largest latency and
	// the first candidate reaching it.
	evalBatch := func(k int) (noc.Cycles, int, error) {
		fold, err := ph.Eval(context.TODO(), probe, k, setCand)
		if err != nil {
			return 0, 0, err
		}
		best.Runs += fold.Runs
		return fold.Worst[cfg.Target], fold.At[cfg.Target], nil
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

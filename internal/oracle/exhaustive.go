package oracle

import (
	"fmt"
	"math/rand"

	"wormnoc/internal/core"
	"wormnoc/internal/exhaustive"
	"wormnoc/internal/noc"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
)

// exhaustiveSearchStream offsets the DeriveSeed stream indices of the
// in-class comparison searches away from the main attack's streams
// (which use 2·flow and 2·flow+1), so the two search families stay
// decorrelated at any flow count.
const exhaustiveSearchStream = int64(1) << 32

// ExhaustiveGap is one flow's search-vs-exhaustive attack-quality
// comparison: how close the randomised phasing search came to the true
// in-class worst case the explicit-state backend computed.
type ExhaustiveGap struct {
	// Flow indexes the flow in the scenario's flow set.
	Flow int `json:"flow"`
	// Search is the best latency the randomised search found inside the
	// exhaustive class (jitter-free, same horizon), -1 if none.
	Search noc.Cycles `json:"search"`
	// Exhaustive is the true worst case over the enumerated class, -1 if
	// no packet of the flow completed at any phasing.
	Exhaustive noc.Cycles `json:"exhaustive"`
	// Gap is Exhaustive - Search, the latency the search left on the
	// table (meaningful when both sides are >= 0; never negative on a
	// complete exploration, or "search<=exhaustive" has been violated).
	Gap noc.Cycles `json:"gap"`
	// Proven reports whether Exhaustive is certified as the true worst
	// case of the class (complete enumeration, no censoring at or above
	// this flow's priority).
	Proven bool `json:"proven"`
	// ViaReduction marks a proof the reductions made affordable: the
	// enumeration that certified this flow covered strictly fewer
	// simulated states than the raw phasing grid. False for proofs over
	// the unreduced grid (ReduceNone, or a space the reductions cannot
	// shrink) and for unproven rows.
	ViaReduction bool `json:"via_reduction,omitempty"`
}

// ExhaustiveReport is the exhaustive backend's contribution to a check
// Report: the state-space coverage and the per-flow gap metric.
type ExhaustiveReport struct {
	// GridSize is the full phasing grid of the scenario.
	GridSize int64 `json:"grid_size"`
	// ReducedGridSize is the enumeration size under the
	// reduction mode the backend ran with (equal to GridSize when the
	// reductions were off or saved nothing).
	ReducedGridSize int64 `json:"reduced_grid_size"`
	// Reduction is the mode's flag spelling ("all", "none", "symmetry",
	// "clusters").
	Reduction string `json:"reduction"`
	// Clusters is the number of independently-explored contention
	// clusters (1 when decomposition was off or the graph is connected).
	Clusters int `json:"clusters"`
	// StatesSaved is GridSize − ReducedGridSize: simulations the
	// reductions made unnecessary without weakening the proof.
	StatesSaved int64 `json:"states_saved"`
	// States is the number of phasings actually simulated.
	States int64 `json:"states"`
	// Duration is the per-phasing simulation horizon used.
	Duration noc.Cycles `json:"duration"`
	// Complete is always true: the backend reports only full
	// enumerations of the reduced grid and skips a space beyond the
	// budget, so every report is held to search<=exhaustive.
	Complete bool `json:"complete"`
	// Gaps holds the per-flow search-vs-exhaustive comparison for every
	// flow some analysis declared schedulable.
	Gaps []ExhaustiveGap `json:"gaps"`
}

// checkExhaustive runs the explicit-state backend over the scenario and
// evaluates its invariant chain: search <= exhaustive (completeness of
// the enumeration), exhaustive <= IBN and exhaustive <= XLWX (soundness
// of the declared-safe bounds against the true in-class worst case),
// and censor-freedom for schedulable flows (a schedulable flow whose
// packet outlives its deadline at some canonical phasing falsifies the
// bound even though the unfinished packet reports no latency). The
// exhaustive class is jitter-free, so the comparison search runs with
// jitter injection off; scenario jitter only widens the analytic
// bounds, keeping the chain sound; its searches walk table, the
// check's busy-period table. Returns a nil report with a note when the
// scenario is out of the backend's reach.
func checkExhaustive(sys *traffic.System, results map[core.Method]*core.Result, cfg CheckConfig,
	bound func(core.Method, int, noc.Cycles) noc.Cycles, table *sim.BusyPeriodTable) ([]Violation, *ExhaustiveReport, []string, int, error) {

	sp, err := exhaustive.Plan(sys)
	if err != nil {
		return nil, nil, []string{fmt.Sprintf("exhaustive skipped: %v", err)}, 0, nil
	}
	// The budget gate compares against the REDUCED enumeration size:
	// scenarios whose raw grid dwarfs the budget still get proofs when
	// the symmetry quotient and cluster decomposition bring the state
	// count within reach. The skip note records both sizes so a "still
	// too big" verdict is auditable against either.
	if reduced := sp.SizeUnder(cfg.ExhaustiveReduce); reduced > cfg.ExhaustiveStates {
		return nil, nil, []string{fmt.Sprintf(
			"exhaustive skipped: reduced state space of %d phasings (raw grid %d) exceeds budget %d",
			reduced, sp.GridSize, cfg.ExhaustiveStates)}, 0, nil
	}
	ex, err := exhaustive.Explore(sys, exhaustive.Config{
		MaxStates: cfg.ExhaustiveStates,
		Workers:   cfg.Workers,
		Reduce:    cfg.ExhaustiveReduce,
	})
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("oracle: exhaustive exploration: %w", err)
	}
	er := &ExhaustiveReport{
		GridSize:        ex.Space.GridSize,
		ReducedGridSize: ex.Reductions.ReducedGridSize,
		Reduction:       ex.Reductions.Mode.String(),
		Clusters:        ex.Reductions.Clusters,
		StatesSaved:     ex.Reductions.StatesSaved,
		States:          ex.States,
		Duration:        ex.Duration,
		Complete:        ex.Complete,
	}
	simRuns := int(ex.States)
	var out []Violation
	methods := []core.Method{core.IBN, core.XLWX}
	for i := 0; i < sys.NumFlows(); i++ {
		schedulable := false
		for _, m := range methods {
			if results[m].Flows[i].Status == core.Schedulable {
				schedulable = true
			}
		}
		if !schedulable {
			continue
		}
		search, err := sim.SearchWorstCase(sys, sim.SearchConfig{
			Base:          sim.Config{Duration: ex.Duration},
			Target:        i,
			Restarts:      cfg.Restarts,
			RefineSteps:   cfg.RefineSteps,
			ProbesPerFlow: cfg.ProbesPerFlow,
			Workers:       1,
			Rand:          rand.New(rand.NewSource(DeriveSeed(cfg.Seed, exhaustiveSearchStream+int64(i)))),
			Table:         table,
		})
		if err != nil {
			return nil, nil, nil, simRuns, fmt.Errorf("oracle: in-class comparison search: %w", err)
		}
		simRuns += search.Runs
		g := ExhaustiveGap{
			Flow:         i,
			Search:       search.Worst,
			Exhaustive:   ex.Flows[i].Worst,
			Proven:       ex.Proven(i),
			ViaReduction: ex.Proven(i) && ex.Reductions.StatesSaved > 0,
		}
		if g.Search >= 0 && g.Exhaustive >= 0 {
			g.Gap = g.Exhaustive - g.Search
		}
		er.Gaps = append(er.Gaps, g)

		// search <= exhaustive: the search samples a subset of the
		// enumerated class, so it can never see further than the backend.
		// If it does, the enumeration (or the class argument behind it)
		// is broken.
		if search.Worst > ex.Flows[i].Worst {
			out = append(out, Violation{
				Class:     ExhaustiveDivergent,
				Invariant: "search<=exhaustive",
				Flow:      i,
				Bound:     ex.Flows[i].Worst,
				Observed:  search.Worst,
				Offsets:   append([]noc.Cycles(nil), search.Offsets...),
				Detail: fmt.Sprintf("randomised search found %d beyond the exhaustive maximum %d over %d phasings",
					search.Worst, ex.Flows[i].Worst, ex.States),
			})
		}

		// exhaustive <= bound for every declared-safe bound: the true
		// in-class worst case, a witnessed latency, must stay below
		// anything IBN/XLWX declared safe.
		for _, m := range methods {
			fr := results[m].Flows[i]
			if fr.Status != core.Schedulable {
				continue
			}
			b := bound(m, i, fr.R)
			if ex.Flows[i].Worst > b {
				out = append(out, Violation{
					Class:     ExhaustiveDivergent,
					Invariant: "exhaustive<=" + m.String(),
					Method:    m,
					Flow:      i,
					Bound:     b,
					Observed:  ex.Flows[i].Worst,
					Offsets:   append([]noc.Cycles(nil), ex.Flows[i].Offsets...),
					Detail: fmt.Sprintf("exhaustive worst case %d exceeds bound %d by %d",
						ex.Flows[i].Worst, b, ex.Flows[i].Worst-b),
				})
			}
			// Censored packets witness latencies beyond the deadline
			// without ever completing, so they evade the worst-latency
			// comparison above; for a flow the analysis declared
			// schedulable (R <= D) they are bound violations all the same.
			if ex.Flows[i].Censored > 0 {
				out = append(out, Violation{
					Class:     ExhaustiveDivergent,
					Invariant: "exhaustive-censor-free",
					Method:    m,
					Flow:      i,
					Bound:     b,
					Observed:  ex.Flows[i].Worst,
					Offsets:   append([]noc.Cycles(nil), ex.Flows[i].Offsets...),
					Detail: fmt.Sprintf("%d phasings left a packet of this %s-schedulable flow unfinished a full deadline past release",
						ex.Flows[i].Censored, m),
				})
			}
		}
	}
	return out, er, nil, simRuns, nil
}

package oracle

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"wormnoc/internal/parallel"
)

// CampaignConfig parameterises a multi-scenario verification campaign:
// Scenarios independent scenarios generated and checked in parallel,
// deterministically in Seed — scenario i is always Generate(DeriveSeed(
// Seed, i), Gen) checked with that same derived seed, regardless of
// worker count or completion order.
type CampaignConfig struct {
	// Scenarios is the number of scenarios to check (default 100).
	Scenarios int
	// Seed is the campaign's root seed.
	Seed int64
	// Gen parameterises the scenario generator.
	Gen GenConfig
	// Check is the per-scenario check template; its Seed field is
	// overwritten with each scenario's derived seed.
	Check CheckConfig
	// Workers bounds the scenarios checked concurrently (0 = GOMAXPROCS).
	// When scenarios run in parallel and Check.Workers is unset, each
	// scenario's internal fan-out (attacked flows, probe batches) is
	// forced serial: one scenario per core beats nested pools, and it is
	// what lets the nightly campaign scale to 10k+ scenarios.
	Workers int
	// Context, when non-nil, cancels the campaign early.
	Context context.Context
}

// CampaignStats aggregates a campaign's outcome. Violations and
// Findings count individual reported entries, not scenarios.
type CampaignStats struct {
	// Checked counts scenarios fully checked.
	Checked int
	// SimRuns totals the checks' Report.SimRuns.
	SimRuns int
	// Violations counts reported invariant breaches.
	Violations int
	// Findings counts KnownOptimism classifications.
	Findings int
	// Exhausted counts scenarios the explicit-state backend enumerated
	// in full (Report.Exhaustive non-nil). Both counts stay zero when
	// CheckConfig.ExhaustiveStates is unset.
	Exhausted int
	// ExhaustedViaReduction counts the subset of Exhausted whose proof
	// covered strictly fewer simulated states than the raw phasing grid
	// — completions the symmetry/cluster reductions made affordable.
	ExhaustedViaReduction int
}

// Campaign generates and checks cfg.Scenarios scenarios on a worker
// pool, streaming every report to fn as scenarios complete (in
// arbitrary order; fn, when non-nil, is called concurrently and must
// synchronise its own state). ccfg is the exact CheckConfig the
// scenario was checked with — persist it alongside a violation so the
// artifact replays identically. A non-nil error from fn or from a check
// cancels the remaining scenarios and is returned with whatever stats
// had accumulated. Every scenario's report is a pure function of
// (cfg.Seed, i, cfg.Gen, cfg.Check), so campaigns are reproducible at
// any parallelism.
func Campaign(cfg CampaignConfig, fn func(i int, sc *Scenario, ccfg CheckConfig, rep *Report) error) (CampaignStats, error) {
	if cfg.Scenarios <= 0 {
		cfg.Scenarios = 100
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	inner := cfg.Check
	if workers > 1 && inner.Workers == 0 {
		inner.Workers = 1
	}
	var (
		mu    sync.Mutex
		stats CampaignStats
	)
	r := parallel.Runner{Workers: workers, Context: cfg.Context}
	err := r.Run(cfg.Scenarios, func(i int) error {
		scSeed := DeriveSeed(cfg.Seed, int64(i))
		sc := Generate(scSeed, cfg.Gen)
		ccfg := inner
		ccfg.Seed = scSeed
		rep, err := Check(sc, ccfg)
		if err != nil {
			return fmt.Errorf("scenario %d (seed %d): %w", i, scSeed, err)
		}
		mu.Lock()
		stats.Checked++
		stats.SimRuns += rep.SimRuns
		stats.Violations += len(rep.Violations)
		stats.Findings += len(rep.Findings)
		if rep.Exhaustive != nil {
			stats.Exhausted++
			if rep.Exhaustive.StatesSaved > 0 {
				stats.ExhaustedViaReduction++
			}
		}
		mu.Unlock()
		if fn != nil {
			return fn(i, sc, ccfg, rep)
		}
		return nil
	})
	return stats, err
}

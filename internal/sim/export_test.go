package sim

import (
	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
)

// Scoped returns cfg as a target-scoped run of flow target, the way
// SearchWorstCase configures its probes.
func Scoped(cfg Config, target int) Config {
	cfg.stopFlow = target + 1
	return cfg
}

// WithTable returns cfg walking busy-period table t when its run passes
// the walk's gate, the way SearchWorstCase configures its probes.
func WithTable(cfg Config, t *BusyPeriodTable) Config {
	cfg.table = t
	return cfg
}

// TableHits returns how many busy periods e's last run took from its
// table, fast-forwarded recurrences included.
func TableHits(e *Engine) int { return e.hits }

// Walked reports whether e's last run walked a busy-period table.
func Walked(e *Engine) bool { return e.bp != nil }

// TableLen returns the number of busy periods t holds.
func TableLen(t *BusyPeriodTable) int { return len(t.entries) }

// Checked returns cfg with the engine's runtime invariants checked after
// every executed cycle and every fast-path batch.
func Checked(cfg Config) Config {
	cfg.checkInvariants = true
	return cfg
}

// Unrestricted returns cfg searching with every flow simulated, never
// only the target's influence set.
func Unrestricted(cfg SearchConfig) SearchConfig {
	cfg.unrestricted = true
	return cfg
}

// Influence returns the flows a search of cfg simulates, or nil when it
// simulates every flow.
func Influence(sys *traffic.System, cfg SearchConfig) []int { return influence(sys, cfg) }

// Restricted returns cfg, a run of sys, as a restricted search probe
// runs it on the restriction of sys to keep: offsets projected onto
// keep and, with jitter injected, the dropped flows' draws replayed.
func Restricted(sys *traffic.System, keep []int, cfg Config) Config {
	full := cfg.Offsets
	if full == nil {
		full = make([]noc.Cycles, sys.NumFlows())
	}
	cfg.Offsets = make([]noc.Cycles, len(keep))
	for k, f := range keep {
		cfg.Offsets[k] = full[f]
	}
	if cfg.InjectJitter {
		cfg.replay = newReplay(sys, keep)
		for _, d := range cfg.replay.drops {
			cfg.replay.offsets = append(cfg.replay.offsets, full[d.index])
		}
	}
	return cfg
}

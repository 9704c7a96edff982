package sim

import "wormnoc/internal/traffic"

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

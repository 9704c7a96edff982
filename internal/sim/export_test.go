package sim

import "wormnoc/internal/noc"

// Scoped returns cfg as a target-scoped run of flow target, the way
// SearchWorstCase configures its probes.
func Scoped(cfg Config, target int) Config {
	cfg.stopFlow = target + 1
	return cfg
}

// RecurrencePeriod returns the period of the recurrence r's run was cut
// at, or 0 when the cut did not fire.
func RecurrencePeriod(r *Result) noc.Cycles { return r.Stats.recurrence }

// Checked returns cfg with the engine's runtime invariants checked after
// every executed cycle and every fast-path batch.
func Checked(cfg Config) Config {
	cfg.checkInvariants = true
	return cfg
}

package sim

// Scoped returns cfg as a target-scoped run of flow target, the way
// SearchWorstCase configures its probes.
func Scoped(cfg Config, target int) Config {
	cfg.stopFlow = target + 1
	return cfg
}

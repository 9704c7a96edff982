package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"wormnoc/internal/noc"
	"wormnoc/internal/oracle"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
)

// TestBusyPeriodMatchesReference runs the differential suite's systems
// — the 220 default scenarios under their phased and packet-capped
// configurations, and the 200 tiny scenarios at the proof horizon —
// through RunBusyPeriod on one reused engine per system. Each Result
// must stop at the top of the cycle after the network first drained,
// its Result must equal the reference engine's at Duration StoppedAt,
// and most
// runs must stop early, so the comparison is not vacuous. The engine's
// runtime invariants are checked throughout. Jitter injection is
// rejected.
func TestBusyPeriodMatchesReference(t *testing.T) {
	runs, stopped := 0, 0
	check := func(label string, eng *sim.Engine, sys *traffic.System, cfg sim.Config) {
		t.Helper()
		got, err := eng.RunBusyPeriod(sim.Checked(cfg))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		at := got.Stats.StoppedAt
		if want := firstDrain(t, sys, cfg); at != want {
			t.Fatalf("%s: stopped at %d, network first drained at the top of %d (horizon %d)", label, at, want, cfg.Duration)
		}
		ref, err := sim.RunReference(sys, sim.Config{
			Duration: at, Offsets: cfg.Offsets, MaxPacketsPerFlow: cfg.MaxPacketsPerFlow,
			RecordLatencies: cfg.RecordLatencies,
		})
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		mustEqualResults(t, fmt.Sprintf("%s (stopped at %d of %d)", label, at, cfg.Duration), ref, got)
		runs++
		if at < cfg.Duration {
			stopped++
		}
	}
	for i := 0; i < 220; i++ {
		seed := oracle.DeriveSeed(0xD1FF, int64(i))
		sys, err := oracle.Generate(seed, oracle.GenConfig{}).System()
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		periods := make([]noc.Cycles, sys.NumFlows())
		for f := range periods {
			periods[f] = sys.Flow(f).Period
		}
		eng := sim.NewEngine(sys)
		for ci, cfg := range diffConfigs(seed, sys.NumFlows(), periods) {
			label := fmt.Sprintf("scenario %d cfg %d", i, ci)
			if cfg.InjectJitter {
				if _, err := eng.RunBusyPeriod(cfg); err == nil {
					t.Fatalf("%s: busy-period run accepted jitter injection", label)
				}
				continue
			}
			if cfg.Offsets != nil {
				check(label, eng, sys, cfg)
			}
		}
	}
	for i := 0; i < 200; i++ {
		seed := oracle.DeriveSeed(0x7147, int64(i))
		sys, err := oracle.Generate(seed, tinyGen).System()
		if err != nil {
			t.Fatalf("tiny scenario %d: %v", i, err)
		}
		cfg := sim.Config{Duration: proofHorizon(sys), Offsets: randomOffsets(sys, seed), RecordLatencies: i%2 == 0}
		check(fmt.Sprintf("tiny scenario %d", i), sim.NewEngine(sys), sys, cfg)
	}
	if stopped*2 <= runs {
		t.Errorf("only %d of %d busy-period runs stopped before the horizon; the comparison is close to vacuous", stopped, runs)
	}
	t.Logf("%d of %d busy-period runs stopped early", stopped, runs)
}

// firstDrain derives, from the reference engine's full-horizon run of
// the jitter-free cfg, the cycle a busy-period run must stop at: the
// one after the first cycle at which a completion leaves every packet
// released so far delivered, or the horizon when that never happens.
// A flow's packets complete in release order, so its k-th latency
// belongs to its k-th release.
func firstDrain(t *testing.T, sys *traffic.System, cfg sim.Config) noc.Cycles {
	t.Helper()
	cfg.RecordLatencies = true
	ref, err := sim.RunReference(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type event struct {
		at    noc.Cycles
		delta int // +1 release, -1 completion
	}
	var events []event
	for f := 0; f < sys.NumFlows(); f++ {
		for k := 0; k < ref.Released[f]; k++ {
			rel := cfg.Offsets[f] + noc.Cycles(k)*sys.Flow(f).Period
			events = append(events, event{rel, +1})
			if k < ref.Completed[f] {
				events = append(events, event{rel + ref.Latencies[f][k], -1})
			}
		}
	}
	// Within a cycle deliveries come before releases.
	slices.SortFunc(events, func(a, b event) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return a.delta - b.delta
	})
	inFlight := 0
	for _, ev := range events {
		if inFlight += ev.delta; inFlight == 0 && ev.delta < 0 {
			return ev.at + 1
		}
	}
	return cfg.Duration
}

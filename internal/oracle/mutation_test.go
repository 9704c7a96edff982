package oracle

import (
	"bytes"
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// The mutation self-tests corrupt analytic bounds through the
// test-only CheckConfig.mutate hook and demand the oracle notice. An
// oracle that stays green under a deliberately unsound analysis is
// decoration, not verification.

func didacticScenario() *Scenario {
	return &Scenario{Doc: workload.Didactic(2).ToDocument()}
}

// Halving every IBN bound makes the analysis optimistic the way a real
// soundness bug would: the phasing attack must observe latencies beyond
// the corrupted bounds and classify them Unsound — and the shrinker
// must then reduce the didactic scenario to a minimal replayable
// counterexample.
func TestMutationOptimisticIBNIsCaughtAndShrunk(t *testing.T) {
	sc := didacticScenario()
	cfg := CheckConfig{
		Seed: 1,
		mutate: func(m core.Method, flow int, r noc.Cycles) noc.Cycles {
			if m == core.IBN {
				return r / 2
			}
			return r
		},
	}
	rep, err := Check(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var caught *Violation
	for i := range rep.Violations {
		if rep.Violations[i].Class == Unsound && rep.Violations[i].Invariant == "sim<=IBN" {
			caught = &rep.Violations[i]
			break
		}
	}
	if caught == nil {
		t.Fatalf("halved IBN bounds went undetected; violations: %v", rep.Violations)
	}
	if caught.Observed <= caught.Bound {
		t.Fatalf("violation does not witness the breach: observed %d <= bound %d", caught.Observed, caught.Bound)
	}

	shrunk, err := Shrink(sc, *caught, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Reductions == 0 {
		t.Error("shrinker made no reduction on the 3-flow didactic scenario")
	}
	if n := len(shrunk.Scenario.Doc.Flows); n > 1 {
		// A lone flow at zero load observes exactly C > C/2, so the
		// minimal counterexample for this mutation is a single flow.
		t.Errorf("minimal counterexample kept %d flows, want 1", n)
	}
	if FindViolation(shrunk.Report, *caught) == nil {
		t.Error("shrunk scenario no longer exhibits the violation")
	}

	// The counterexample persists, round-trips and replays. Replay runs
	// the *unmutated* analyses — the violation must NOT reproduce, which
	// is exactly what replay reports after a bug is fixed.
	art := NewArtifact(shrunk.Scenario, cfg, *FindViolation(shrunk.Report, *caught), shrunk)
	var buf bytes.Buffer
	if err := art.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayRep, reproduced, err := back.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if reproduced {
		t.Errorf("replay against the healthy analyses reproduced the mutation's violation: %v", replayRep.Violations)
	}
}

// An off-by-one tightening of XLWX must trip the IBN<=XLWX
// cross-consistency invariant: the didactic top-priority flow has
// R_IBN == R_XLWX, so any tightening of XLWX alone inverts the order.
func TestMutationTightenedXLWXTripsConsistency(t *testing.T) {
	sc := didacticScenario()
	rep, err := Check(sc, CheckConfig{
		Seed: 1,
		mutate: func(m core.Method, flow int, r noc.Cycles) noc.Cycles {
			if m == core.XLWX {
				return r - 1
			}
			return r
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		if v.Class == Inconsistent && v.Invariant == "IBN<=XLWX" {
			return
		}
	}
	t.Fatalf("tightened XLWX went undetected; violations: %v", rep.Violations)
}

// A uniform +1 loosening of every schedulable bound is invisible to the
// soundness, consistency and monotonicity invariants (looser bounds
// stay safe, and both sides of every analytic comparison shift
// together) — but the incremental-divergence comparison applies the
// hook to the scratch reference side only, so the warm-started engine's
// raw results must register as divergent. An oracle that stays green
// here would also miss a real one-cycle warm-start bug.
func TestMutationIncrementalDivergenceIsCaughtAndShrunk(t *testing.T) {
	sc := didacticScenario()
	cfg := CheckConfig{
		Seed:   1,
		mutate: func(m core.Method, flow int, r noc.Cycles) noc.Cycles { return r + 1 },
	}
	rep, err := Check(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var caught *Violation
	for i := range rep.Violations {
		if rep.Violations[i].Class == IncrementalDivergent && rep.Violations[i].Invariant == "incremental==scratch" {
			caught = &rep.Violations[i]
			break
		}
	}
	if caught == nil {
		t.Fatalf("shifted reference bounds went undetected; violations: %v", rep.Violations)
	}
	if caught.Bound != caught.Observed+1 {
		t.Fatalf("violation does not witness the one-cycle shift: bound %d, observed %d", caught.Bound, caught.Observed)
	}
	for _, v := range rep.Violations {
		if v.Class != IncrementalDivergent {
			t.Errorf("the uniform shift leaked into another invariant: %s", v.String())
		}
	}

	// The shrinker walks the replayed chain down: a single edit already
	// exhibits the (mutation-faked) divergence.
	shrunk, err := Shrink(sc, *caught, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Config.EditChainLen >= DefaultEditChainLen {
		t.Errorf("shrinker left the edit chain at %d edits", shrunk.Config.EditChainLen)
	}
	if FindViolation(shrunk.Report, *caught) == nil {
		t.Error("shrunk scenario no longer exhibits the divergence")
	}

	// The artifact records the shrunk chain length, round-trips, and its
	// replay runs the healthy engine — the divergence must NOT reproduce.
	art := NewArtifact(shrunk.Scenario, cfg, *FindViolation(shrunk.Report, *caught), shrunk)
	if art.Check.EditChainLen != shrunk.Config.EditChainLen {
		t.Errorf("artifact records chain length %d, shrinker found %d", art.Check.EditChainLen, shrunk.Config.EditChainLen)
	}
	var buf bytes.Buffer
	if err := art.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.CheckConfig().EditChainLen != art.Check.EditChainLen {
		t.Errorf("chain length lost in round trip: %d vs %d", back.CheckConfig().EditChainLen, art.Check.EditChainLen)
	}
	replayRep, reproduced, err := back.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if reproduced {
		t.Errorf("replay against the healthy engine reproduced the mutation's divergence: %v", replayRep.Violations)
	}
}

// stopOneEarly stands in for a phasing search whose target-scoped
// probes stop one completion too early: the worst latency it reports
// for its phasing omits the target's last completed packet.
func stopOneEarly(sys *traffic.System, cfg sim.SearchConfig) (*sim.SearchResult, error) {
	res, err := sim.SearchWorstCase(sys, cfg)
	if err != nil {
		return nil, err
	}
	run := cfg.Base
	run.Offsets = res.Offsets
	run.RecordLatencies = true
	full, err := sim.Run(sys, run)
	if err != nil {
		return nil, err
	}
	lats := full.Latencies[cfg.Target]
	res.Worst = -1
	if len(lats) > 0 {
		for _, l := range lats[:len(lats)-1] {
			res.Worst = max(res.Worst, l)
		}
	}
	return res, nil
}

// A search that stops its probes one completion early under-reports
// the target's worst latency, which no bound comparison can notice: the
// full-horizon replay of its phasing must disagree with it, be reported
// Divergent, and shrink to a replayable counterexample.
func TestMutationEarlyStopIsCaughtAndShrunk(t *testing.T) {
	sc := didacticScenario()
	// Over a 5000-cycle horizon τ3 (period 6000) completes exactly one
	// packet, so losing the last completion loses its whole row.
	cfg := CheckConfig{Seed: 1, Duration: 5_000, search: stopOneEarly}
	rep, err := Check(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var caught *Violation
	for i := range rep.Violations {
		if rep.Violations[i].Class == Divergent && rep.Violations[i].Invariant == "search-replay-agrees" {
			caught = &rep.Violations[i]
			break
		}
	}
	if caught == nil {
		t.Fatalf("early-stopping search went undetected; violations: %v", rep.Violations)
	}
	if caught.Observed >= caught.Bound {
		t.Fatalf("violation does not witness the lost completion: search %d, replay %d", caught.Observed, caught.Bound)
	}

	shrunk, err := Shrink(sc, *caught, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Reductions == 0 {
		t.Error("shrinker made no reduction on the 3-flow didactic scenario")
	}
	if FindViolation(shrunk.Report, *caught) == nil {
		t.Error("shrunk scenario no longer exhibits the violation")
	}
	// Replay runs the real search: the violation must not reproduce.
	art := NewArtifact(shrunk.Scenario, cfg, *FindViolation(shrunk.Report, *caught), shrunk)
	if _, reproduced, err := art.Replay(); err != nil {
		t.Fatal(err)
	} else if reproduced {
		t.Error("replay with the real search reproduced the early stop's divergence")
	}
}

// Loosening high-buffer IBN rungs is invisible, but *tightening* them
// — here: collapsing the bound at depths above the platform's — breaks
// buffer monotonicity and must be classified NonMonotone.
func TestMutationNonMonotoneBufferIsCaught(t *testing.T) {
	sc := didacticScenario()
	calls := 0
	rep, err := Check(sc, CheckConfig{
		Seed: 1,
		mutate: func(m core.Method, flow int, r noc.Cycles) noc.Cycles {
			if m != core.IBN || flow != 2 {
				return r
			}
			// Each successive probe (the monotonicity ladder queries
			// ascending depths in order) gets an extra 40 cycles shaved.
			// The didactic IBN rungs for flow 2 rise by under 40 across
			// some step of the ladder, so the mutated sequence must
			// invert there while staying positive.
			calls++
			return r - noc.Cycles(40*calls)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		if v.Class == NonMonotone && v.Invariant == "IBN-monotone-in-buf" {
			return
		}
	}
	t.Fatalf("non-monotone IBN went undetected; violations: %v", rep.Violations)
}

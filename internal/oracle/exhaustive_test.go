package oracle

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/exhaustive"
	"wormnoc/internal/noc"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
)

// tinyScenario is small enough for the explicit-state backend: a
// 2-node line, two flows sharing the whole route, grid of 8*20 = 160
// phasings. Both flows are IBN/XLWX-schedulable (the low-priority
// deadline is generous because the analytic bounds are conservative
// under shared-route interference), so the full chain
// search <= exhaustive <= IBN <= XLWX is exercised.
func tinyScenario() *Scenario {
	return &Scenario{Doc: buildDoc(
		traffic.MeshSpec{Width: 2, Height: 1, BufDepth: 4, LinkLatency: 1},
		[]traffic.Flow{
			{Name: "h", Priority: 1, Period: 8, Deadline: 8, Length: 2, Src: 0, Dst: 1},
			{Name: "l", Priority: 2, Period: 20, Deadline: 20, Length: 3, Src: 0, Dst: 1},
		})}
}

// A healthy tiny scenario must come back violation-free with a complete
// exhaustive report proving the chain, and — on a grid this small — a
// zero search-vs-exhaustive gap. The 160-phasing raw grid (8·20, one
// contention cluster) reduces to 160 − 7·19 = 27 shift-symmetry
// representatives, so the default mode proves the chain in 27 states
// while ReduceNone still enumerates all 160.
func TestCheckExhaustiveProvesChain(t *testing.T) {
	for _, tc := range []struct {
		name          string
		reduce        exhaustive.Reduction
		states, saved int64
	}{
		{"reduced", exhaustive.ReduceAll, 27, 133},
		{"raw", exhaustive.ReduceNone, 160, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Check(tinyScenario(), CheckConfig{
				Seed: 1, ExhaustiveStates: 1 << 12, ExhaustiveReduce: tc.reduce})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				t.Fatalf("healthy scenario reported violations: %v", rep.Violations)
			}
			ex := rep.Exhaustive
			if ex == nil {
				t.Fatalf("exhaustive backend did not run; notes: %v", rep.Notes)
			}
			if !ex.Complete {
				t.Fatalf("reduced space not completely enumerated: %+v", ex)
			}
			if ex.GridSize != 160 || ex.States != tc.states {
				t.Fatalf("grid/states = %d/%d, want 160/%d", ex.GridSize, ex.States, tc.states)
			}
			if ex.ReducedGridSize != tc.states || ex.StatesSaved != tc.saved ||
				ex.Reduction != tc.reduce.String() || ex.Clusters != 1 {
				t.Fatalf("reduction accounting %+v, want reduced %d saved %d mode %q clusters 1",
					ex, tc.states, tc.saved, tc.reduce)
			}
			if len(ex.Gaps) != 2 {
				t.Fatalf("gap metric covers %d flows, want 2", len(ex.Gaps))
			}
			for _, g := range ex.Gaps {
				if !g.Proven {
					t.Errorf("flow %d not proven on a complete uncensored enumeration", g.Flow)
				}
				if g.ViaReduction != (tc.saved > 0) {
					t.Errorf("flow %d: ViaReduction = %v under mode %q", g.Flow, g.ViaReduction, tc.reduce)
				}
				if g.Gap != 0 {
					t.Errorf("flow %d: search left a gap of %d on a 160-phasing grid (search %d, exhaustive %d)",
						g.Flow, g.Gap, g.Search, g.Exhaustive)
				}
			}
		})
	}
}

// The budget gate compares against the reduced enumeration size: a
// budget far below the 160-phasing raw grid but above the 27
// representatives must still yield a complete proof — the scenarios the
// reductions exist for. The same budget under ReduceNone skips.
func TestCheckExhaustiveBudgetUsesReducedSize(t *testing.T) {
	rep, err := Check(tinyScenario(), CheckConfig{Seed: 1, ExhaustiveStates: 40})
	if err != nil {
		t.Fatal(err)
	}
	ex := rep.Exhaustive
	if ex == nil {
		t.Fatalf("reduced space of 27 skipped under budget 40; notes: %v", rep.Notes)
	}
	if !ex.Complete || ex.States != 27 || ex.StatesSaved != 133 {
		t.Fatalf("expected a complete 27-state proof via reduction, got %+v", ex)
	}

	rep, err = Check(tinyScenario(), CheckConfig{
		Seed: 1, ExhaustiveStates: 40, ExhaustiveReduce: exhaustive.ReduceNone})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exhaustive != nil {
		t.Fatal("unreduced 160-phasing grid ran under budget 40")
	}
}

// Scenarios out of the backend's reach are skipped with an explicit
// note, never silently and never with a fake report.
func TestCheckExhaustiveSkipsLoudly(t *testing.T) {
	// Budget below even the reduced space of 27 representatives. The
	// skip note must carry both the reduced and the raw grid size so
	// "still too big after reduction" is auditable.
	rep, err := Check(tinyScenario(), CheckConfig{Seed: 1, ExhaustiveStates: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exhaustive != nil {
		t.Fatal("over-budget grid still produced an exhaustive report")
	}
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "exhaustive skipped") && strings.Contains(n, "budget") {
			found = true
			if !strings.Contains(n, "27") || !strings.Contains(n, "160") {
				t.Errorf("skip note lacks reduced (27) and raw (160) sizes: %q", n)
			}
		}
	}
	if !found {
		t.Fatalf("no skip note recorded; notes: %v", rep.Notes)
	}

	// Backend disabled: no report, no note, no cost.
	rep, err = Check(tinyScenario(), CheckConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exhaustive != nil {
		t.Fatal("disabled backend still produced an exhaustive report")
	}
	for _, n := range rep.Notes {
		if strings.Contains(n, "exhaustive") {
			t.Fatalf("disabled backend left a note: %q", n)
		}
	}
}

// A solo flow with T = D = 2⁶¹ has a one-phasing reduced space and a
// horizon H + 2D + 1 that fits int64, but horizon + T + J + C does not:
// the simulator would refuse it, so the check must skip the backend
// with a note rather than fail.
func TestCheckExhaustiveSkipsSimulatorHorizon(t *testing.T) {
	t61 := noc.Cycles(1) << 61
	sc := &Scenario{Doc: buildDoc(
		traffic.MeshSpec{Width: 2, Height: 1, BufDepth: 4, LinkLatency: 1},
		[]traffic.Flow{{Name: "solo", Priority: 1, Period: t61, Deadline: t61, Length: 4, Src: 0, Dst: 1}})}
	rep, err := Check(sc, CheckConfig{Seed: 1, ExhaustiveStates: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exhaustive != nil {
		t.Fatal("backend ran on a horizon the simulator refuses")
	}
	found := false
	for _, n := range rep.Notes {
		found = found || strings.Contains(n, "exhaustive skipped") && strings.Contains(n, "periods too large")
	}
	if !found {
		t.Fatalf("no periods-too-large skip note; notes: %v", rep.Notes)
	}
}

// Halving the IBN bound on the tiny scenario must trip the exhaustive
// chain — the true in-class worst case exceeds the corrupted bound —
// and the violation must shrink to a minimal replayable counterexample,
// with the backend's budget recorded in the artifact so the replay
// re-arms it.
func TestMutationExhaustiveDivergenceIsCaughtAndShrunk(t *testing.T) {
	sc := tinyScenario()
	cfg := CheckConfig{
		Seed:             1,
		ExhaustiveStates: 1 << 12,
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
		if rep.Violations[i].Class == ExhaustiveDivergent && rep.Violations[i].Invariant == "exhaustive<=IBN" {
			caught = &rep.Violations[i]
			break
		}
	}
	if caught == nil {
		t.Fatalf("halved IBN bound evaded the exhaustive chain; violations: %v", rep.Violations)
	}
	if caught.Observed <= caught.Bound {
		t.Fatalf("violation does not witness the breach: observed %d <= bound %d", caught.Observed, caught.Bound)
	}
	// The witness phasing must be attached for replay.
	if len(caught.Offsets) == 0 {
		t.Fatal("exhaustive violation carries no witness phasing")
	}

	shrunk, err := Shrink(sc, *caught, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Reductions == 0 {
		t.Error("shrinker made no reduction on the 2-flow scenario")
	}
	if n := len(shrunk.Scenario.Doc.Flows); n > 1 {
		// A lone flow's exhaustive worst case is exactly C > C/2, so the
		// minimal counterexample for this mutation is a single flow.
		t.Errorf("minimal counterexample kept %d flows, want 1", n)
	}
	if FindViolation(shrunk.Report, *caught) == nil {
		t.Error("shrunk scenario no longer exhibits the violation")
	}

	// The artifact records the exhaustive budget, round-trips, and its
	// replay (healthy analyses) must NOT reproduce the violation.
	art := NewArtifact(shrunk.Scenario, cfg, *FindViolation(shrunk.Report, *caught), shrunk)
	if art.Check.ExhaustiveStates != cfg.ExhaustiveStates {
		t.Errorf("artifact records exhaustive budget %d, want %d", art.Check.ExhaustiveStates, cfg.ExhaustiveStates)
	}
	var buf bytes.Buffer
	if err := art.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.CheckConfig().ExhaustiveStates != cfg.ExhaustiveStates {
		t.Errorf("exhaustive budget lost in round trip: %d", back.CheckConfig().ExhaustiveStates)
	}
	if back.CheckConfig().ExhaustiveReduce != cfg.ExhaustiveReduce {
		t.Errorf("reduction mode lost in round trip: %v", back.CheckConfig().ExhaustiveReduce)
	}
	replayRep, reproduced, err := back.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if reproduced {
		t.Errorf("replay against the healthy analyses reproduced the mutation's violation: %v", replayRep.Violations)
	}
	if replayRep.Exhaustive == nil {
		t.Error("replay did not re-arm the exhaustive backend")
	}
}

// A campaign with the backend armed counts enumerated scenarios; tiny
// generator bounds keep every grid within reach.
func TestCampaignCountsExhausted(t *testing.T) {
	stats, err := Campaign(CampaignConfig{
		Scenarios: 4,
		Seed:      7,
		Gen: GenConfig{
			MaxDim: 2, MaxFlows: 2, MaxBuf: 4,
			MaxLinkLatency: 1, MaxRouteLatency: -1,
			PeriodMin: 6, PeriodMax: 16, LenMin: 2, LenMax: 4,
		},
		Check:   CheckConfig{Duration: 2000, ExhaustiveStates: 1 << 12},
		Workers: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checked != 4 {
		t.Fatalf("checked %d scenarios, want 4", stats.Checked)
	}
	if stats.Exhausted == 0 {
		t.Fatal("no scenario reached the exhaustive backend under tiny generator bounds")
	}
	if stats.ExhaustedViaReduction > stats.Exhausted {
		t.Fatalf("via-reduction count %d exceeds enumerated count %d",
			stats.ExhaustedViaReduction, stats.Exhausted)
	}
	if stats.Violations != 0 {
		t.Fatalf("healthy campaign reported %d violations", stats.Violations)
	}
}

// The exhaustive backend cuts each phasing's run at its first idle
// instant, so a packet the full horizon censors can instead complete
// late in the representative whose first busy period holds it. The
// pinned prove-regime system below is such a case: flow 0 (T = D = 17)
// is censored at some raw grid point at full horizon, yet the cut
// exploration reports no censoring for it, only deadline misses. Were
// the flow declared schedulable, the censor-free invariant would stay
// silent, but the late completion makes Worst > D ≥ R, so
// exhaustive<=IBN and exhaustive<=XLWX still fire.
func TestExhaustiveCensorShiftStillViolates(t *testing.T) {
	const flow = 0
	sc := Generate(DeriveSeed(0xB057, 350), GenConfig{
		MaxDim: 2, MaxFlows: 3, MaxBuf: 4, MaxLinkLatency: 1, MaxRouteLatency: -1,
		PeriodMin: 6, PeriodMax: 18, LenMin: 2, LenMax: 6, JitterProb: -1,
	})
	sys, err := sc.System()
	if err != nil {
		t.Fatal(err)
	}
	d := sys.Flow(flow).Deadline
	sp, err := exhaustive.Plan(sys)
	if err != nil {
		t.Fatal(err)
	}
	// Full horizon: some raw grid point leaves a packet released a
	// deadline before the horizon unfinished.
	eng := sim.NewEngine(sys)
	censored := false
	off := make([]noc.Cycles, sys.NumFlows())
	for a := noc.Cycles(0); a < sys.Flow(0).Period && !censored; a++ {
		for b := noc.Cycles(0); b < sys.Flow(1).Period && !censored; b++ {
			off[0], off[1] = a, b
			sr, err := eng.Run(sim.Config{Duration: sp.SuggestedDuration, Offsets: off})
			if err != nil {
				t.Fatal(err)
			}
			owed := int((sp.SuggestedDuration-1-d-a)/sys.Flow(flow).Period) + 1
			censored = sr.Completed[flow] < owed
		}
	}
	if sys.NumFlows() != 2 || !censored {
		t.Fatalf("pinned system drifted: %d flows, flow %d censored at full horizon: %v", sys.NumFlows(), flow, censored)
	}

	cfg := CheckConfig{Seed: sc.Seed, ExhaustiveStates: 1 << 12, ExhaustiveReduce: exhaustive.ReduceNone}
	cfg.setDefaults()
	ex, err := exhaustive.Explore(sys, exhaustive.Config{Reduce: cfg.ExhaustiveReduce})
	if err != nil {
		t.Fatal(err)
	}
	if fr := ex.Flows[flow]; !ex.Complete || fr.Censored != 0 || fr.DeadlineMisses == 0 || fr.Worst <= d {
		t.Fatalf("cut exploration of flow %d: complete %v, censored %d, misses %d, worst %d (D %d); want a censor-free late completion",
			flow, ex.Complete, fr.Censored, fr.DeadlineMisses, fr.Worst, d)
	}

	// Declare the flow schedulable at the loosest bound that allows it.
	results := make(map[core.Method]*core.Result)
	for _, m := range []core.Method{core.IBN, core.XLWX} {
		res, err := core.Analyze(sys, core.Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		res.Flows[flow] = core.FlowResult{R: d, Status: core.Schedulable}
		results[m] = res
	}
	vs, rep, _, _, err := checkExhaustive(sys, results, cfg, func(_ core.Method, _ int, r noc.Cycles) noc.Cycles { return r }, new(sim.BusyPeriodTable))
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || !rep.Complete {
		t.Fatalf("exhaustive backend did not complete: %+v", rep)
	}
	fired := map[string]bool{}
	for _, v := range vs {
		if v.Class == ExhaustiveDivergent && v.Flow == flow {
			if v.Invariant != "exhaustive-censor-free" && v.Observed <= v.Bound {
				t.Errorf("%s does not witness the breach: observed %d <= bound %d", v.Invariant, v.Observed, v.Bound)
			}
			fired[v.Invariant] = true
		}
	}
	if !fired["exhaustive<=IBN"] || !fired["exhaustive<=XLWX"] {
		t.Fatalf("late completion past the declared bound went unreported; violations: %v", vs)
	}
	if fired["exhaustive-censor-free"] {
		t.Fatalf("censor-free invariant fired on a flow the cut reports uncensored; violations: %v", vs)
	}
}

// Every search of a check shares one busy-period table, the attack's
// searches concurrently when Workers > 1. The table changes how probes
// are computed, never what they observe, so on `nocfuzz exhaust`-style
// scenarios checked with the prove budget the whole report must not
// depend on the worker count.
func TestCheckSharedTableDeterministic(t *testing.T) {
	gen := GenConfig{MaxDim: 2, MaxFlows: 3, MaxBuf: 4, MaxLinkLatency: 1, MaxRouteLatency: -1,
		PeriodMin: 6, PeriodMax: 18, LenMin: 2, LenMax: 6, JitterProb: -1}
	proofs := 0
	for i := int64(0); i < 20; i++ {
		sc := Generate(DeriveSeed(0x7AB1E, i), gen)
		var reps [2]*Report
		for k, workers := range []int{1, 4} {
			rep, err := Check(sc, CheckConfig{Seed: sc.Seed, Duration: 2_000, Restarts: 2, RefineSteps: 1,
				ProbesPerFlow: 4, Workers: workers, ExhaustiveStates: 1 << 16})
			if err != nil {
				t.Fatalf("scenario %d: %v", i, err)
			}
			reps[k] = rep
		}
		if !reflect.DeepEqual(reps[0], reps[1]) {
			t.Fatalf("scenario %d (%s): reports differ between 1 and 4 workers\n1: %+v\n4: %+v", i, sc, reps[0], reps[1])
		}
		if reps[0].Exhaustive != nil && reps[0].Exhaustive.Complete {
			proofs++
		}
	}
	if proofs == 0 {
		t.Error("no scenario ended in a complete proof; the comparison searches went unchecked")
	}
}

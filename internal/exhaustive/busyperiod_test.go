package exhaustive_test

import (
	"fmt"
	"math/rand"
	"testing"

	"wormnoc/internal/exhaustive"
	"wormnoc/internal/noc"
	"wormnoc/internal/oracle"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
)

// proveGen is the scenario distribution of `nocfuzz exhaust` and of
// the benchmark's prove workload: meshes of at most 2×2 nodes, at most
// 3 flows, 6–18-cycle periods, 2–6-flit packets, no jitter.
var proveGen = oracle.GenConfig{
	MaxDim: 2, MaxFlows: 3, MaxBuf: 4, MaxLinkLatency: 1, MaxRouteLatency: -1,
	PeriodMin: 6, PeriodMax: 18, LenMin: 2, LenMax: 6, JitterProb: -1,
}

// maxBruteCycles caps the raw grid times the horizon of a prove-regime
// system admitted to the brute-force comparison, so the test stays at
// seconds.
const maxBruteCycles = 1 << 19

// fullHorizon is the brute-force reference of an exploration: every
// raw grid point simulated by Engine.Run for the whole horizon, with
// no reduction and no busy-period cut.
type fullHorizon struct {
	worst    []noc.Cycles
	flag     []bool // some phasing censored the flow or missed its deadline
	censored []bool // some phasing censored the flow
	states   int64
}

func bruteForce(t *testing.T, sys *traffic.System, duration noc.Cycles) fullHorizon {
	t.Helper()
	n := sys.NumFlows()
	ref := fullHorizon{worst: make([]noc.Cycles, n), flag: make([]bool, n), censored: make([]bool, n)}
	for i := range ref.worst {
		ref.worst[i] = -1
	}
	eng := sim.NewEngine(sys)
	off := make([]noc.Cycles, n)
	for {
		sr, err := eng.Run(sim.Config{Duration: duration, Offsets: off})
		if err != nil {
			t.Fatal(err)
		}
		ref.states++
		for i := 0; i < n; i++ {
			f := sys.Flow(i)
			ref.worst[i] = max(ref.worst[i], sr.WorstLatency[i])
			// Completions owed: releases a full deadline before the
			// last simulated cycle.
			owed := 0
			if last := duration - 1 - f.Deadline; off[i] <= last {
				owed = int((last-off[i])/f.Period) + 1
			}
			if sr.Completed[i] < owed {
				ref.censored[i] = true
			}
			if sr.Completed[i] < owed || sr.DeadlineMisses[i] > 0 {
				ref.flag[i] = true
			}
		}
		// Next mixed-radix grid point, last flow fastest.
		k := n - 1
		for ; k >= 0; k-- {
			if off[k]++; off[k] < sys.Flow(k).Period {
				break
			}
			off[k] = 0
		}
		if k < 0 {
			return ref
		}
	}
}

// provenFrom is Result.Proven recomputed from brute-force flags: no
// flow at equal-or-higher priority censored or missed.
func provenFrom(sys *traffic.System, flag []bool, i int) bool {
	for j := range flag {
		if sys.Flow(j).Priority <= sys.Flow(i).Priority && flag[j] {
			return false
		}
	}
	return true
}

// cutPopulation is TestReductionEquivalence's 30 tiny systems, the
// first 48 prove-regime systems whose raw grid brute-forces within
// maxBruteCycles, and prove-regime stream 350, whose full-horizon
// censoring the cut turns into deadline misses (see also the oracle's
// TestExhaustiveCensorShiftStillViolates).
func cutPopulation(t *testing.T) []*traffic.System {
	rng := rand.New(rand.NewSource(1234))
	var out []*traffic.System
	for trial := 0; trial < 30; trial++ {
		out = append(out, exhaustive.RandomTinySystem(rng))
	}
	prove := func(i int64) *traffic.System {
		sys, err := oracle.Generate(oracle.DeriveSeed(0xB057, i), proveGen).System()
		if err != nil {
			t.Fatal(err)
		}
		if sp, err := exhaustive.Plan(sys); err != nil || float64(sp.GridSize)*float64(sp.SuggestedDuration) > maxBruteCycles {
			return nil
		}
		return sys
	}
	for i, admitted := int64(0), 0; admitted < 48; i++ {
		if sys := prove(i); sys != nil {
			out = append(out, sys)
			admitted++
		}
	}
	pinned := prove(350)
	if pinned == nil {
		t.Fatal("pinned prove-regime stream 350 no longer fits the brute force")
	}
	return append(out, pinned)
}

// TestBusyPeriodCutMatchesFullHorizon holds the busy-period cut to a
// brute force of the raw grid at full horizon. Under every reduction
// mode, Explore must report the brute force's per-flow worst case,
// censor-or-miss flag and Proven verdict, simulate the same number of
// states as before the cut (SizeUnder of the mode, the whole raw grid
// under ReduceNone), and name witnesses that replay at full horizon to
// the reported worst. A packet the full horizon censors may complete
// late in the representative whose first busy period holds it, so
// the flag may move from censoring to deadline misses; over the raw
// grid, the population must contain such a flow.
func TestBusyPeriodCutMatchesFullHorizon(t *testing.T) {
	shifted := 0
	for si, sys := range cutPopulation(t) {
		sp, err := exhaustive.Plan(sys)
		if err != nil {
			t.Fatal(err)
		}
		ref := bruteForce(t, sys, sp.SuggestedDuration)
		if ref.states != sp.GridSize {
			t.Fatalf("system %d: brute force ran %d states of a %d grid", si, ref.states, sp.GridSize)
		}
		for _, mode := range []exhaustive.Reduction{exhaustive.ReduceNone, exhaustive.ReduceSymmetry,
			exhaustive.ReduceClusters, exhaustive.ReduceAll} {
			label := fmt.Sprintf("system %d mode %v", si, mode)
			res, err := exhaustive.Explore(sys, exhaustive.Config{Reduce: mode, Workers: 1})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !res.Complete || res.States != sp.SizeUnder(mode) {
				t.Fatalf("%s: complete %v, %d states, want %d", label, res.Complete, res.States, sp.SizeUnder(mode))
			}
			for i, fr := range res.Flows {
				flag := fr.Censored > 0 || fr.DeadlineMisses > 0
				if fr.Worst != ref.worst[i] || flag != ref.flag[i] || res.Proven(i) != provenFrom(sys, ref.flag, i) {
					t.Fatalf("%s flow %d: cut worst %d flag %v proven %v, full horizon worst %d flag %v proven %v\nsystem: %v",
						label, i, fr.Worst, flag, res.Proven(i), ref.worst[i], ref.flag[i], provenFrom(sys, ref.flag, i), sys.Flows())
				}
				if mode == exhaustive.ReduceNone && fr.Censored == 0 && ref.censored[i] {
					shifted++
				}
				rr, err := sim.Run(sys, sim.Config{Duration: res.Duration, Offsets: fr.Offsets})
				if err != nil {
					t.Fatal(err)
				}
				if rr.WorstLatency[i] != fr.Worst {
					t.Fatalf("%s flow %d: witness %v replays at full horizon to %d, reported %d",
						label, i, fr.Offsets, rr.WorstLatency[i], fr.Worst)
				}
			}
		}
	}
	if shifted == 0 {
		t.Error("no flow the full horizon censors lost its censoring under the cut; the flag comparison misses that case")
	}
	t.Logf("%d flows censored at full horizon carry their flag as deadline misses alone under the cut", shifted)
}

package exhaustive_test

import (
	"slices"
	"testing"

	"wormnoc/internal/exhaustive"
	"wormnoc/internal/noc"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
)

// benchReferenceSystem is the 4-flow reference configuration of the
// reduction before/after pair (results/BENCH_exhaustive.json): two
// link-disjoint contention clusters on a 4-node line — flows 0,1 share
// link 1→2 in the forward direction, flows 2,3 share link 2→1 in the
// reverse direction. Raw grid 8·12·9·10 = 8640 phasings; the cluster
// decomposition splits it into 96 + 90 and the shift-symmetry quotient
// shrinks those to 19 + 18 = 37 representatives, a ~234× state
// reduction at identical (property-test-certified) results.
func benchReferenceSystem(b testing.TB) *traffic.System {
	topo := noc.MustMesh(4, 1, noc.RouterConfig{BufDepth: 4, LinkLatency: 1})
	sys, err := traffic.NewSystem(topo, []traffic.Flow{
		{Name: "a0", Priority: 1, Period: 8, Deadline: 8, Length: 2, Src: 0, Dst: 2},
		{Name: "a1", Priority: 2, Period: 12, Deadline: 12, Length: 3, Src: 1, Dst: 3},
		{Name: "b0", Priority: 3, Period: 9, Deadline: 9, Length: 2, Src: 3, Dst: 1},
		{Name: "b1", Priority: 4, Period: 10, Deadline: 10, Length: 3, Src: 2, Dst: 0},
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func benchExplore(b *testing.B, mode exhaustive.Reduction) {
	sys := benchReferenceSystem(b)
	b.Run("ref4", func(b *testing.B) {
		var states int64
		for i := 0; i < b.N; i++ {
			res, err := exhaustive.Explore(sys, exhaustive.Config{Reduce: mode, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Complete {
				b.Fatal("reference configuration did not complete")
			}
			states = res.States
		}
		b.ReportMetric(float64(states), "states/op")
	})
}

// BenchmarkExhaustiveRaw is the before side of the reduction pair: the
// unreduced grid enumeration the pre-reduction explorer performed
// (ReduceNone is bit-compatible with it). Workers is pinned to 1 so the
// pair measures states, not scheduling.
func BenchmarkExhaustiveRaw(b *testing.B) { benchExplore(b, exhaustive.ReduceNone) }

// BenchmarkExhaustiveReduced is the after side: the same proof obtained
// from the symmetry-quotiented, cluster-decomposed state space. The
// states/op metric records the enumeration sizes whose ratio is the
// claimed reduction; TestReductionEquivalence is the *Agree test of
// this pair.
func BenchmarkExhaustiveReduced(b *testing.B) { benchExplore(b, exhaustive.ReduceAll) }

// clusterRun is one simulation of a proof: a cluster's
// restricted system and one of its shift representatives.
type clusterRun struct {
	eng     *sim.Engine
	offsets []noc.Cycles
}

// representatives lists the simulations a reduced proof of sys runs:
// for every contention cluster, each offset vector of its raw sub-grid
// whose smallest offset is 0, on one engine per cluster.
func representatives(b *testing.B, sys *traffic.System) ([]clusterRun, noc.Cycles) {
	sp, err := exhaustive.Plan(sys)
	if err != nil {
		b.Fatal(err)
	}
	var runs []clusterRun
	for _, c := range sp.Clusters {
		sub, err := sim.Restrict(sys, c.Flows)
		if err != nil {
			b.Fatal(err)
		}
		eng := sim.NewEngine(sub)
		off := make([]noc.Cycles, len(c.Flows))
		for {
			if slices.Min(off) == 0 {
				runs = append(runs, clusterRun{eng, slices.Clone(off)})
			}
			k := len(off) - 1
			for ; k >= 0; k-- {
				if off[k]++; off[k] < sys.Flow(c.Flows[k]).Period {
					break
				}
				off[k] = 0
			}
			if k < 0 {
				break
			}
		}
	}
	if int64(len(runs)) != sp.ReducedGridSize {
		b.Fatalf("enumerated %d representatives, plan says %d", len(runs), sp.ReducedGridSize)
	}
	return runs, sp.SuggestedDuration
}

func benchRepresentatives(b *testing.B, busyPeriod bool) {
	runs, duration := representatives(b, benchReferenceSystem(b))
	b.Run("ref4", func(b *testing.B) {
		var cycles noc.Cycles
		for i := 0; i < b.N; i++ {
			cycles = 0
			for _, r := range runs {
				cfg := sim.Config{Duration: duration, Offsets: r.offsets}
				if !busyPeriod {
					if _, err := r.eng.Run(cfg); err != nil {
						b.Fatal(err)
					}
					cycles += duration
					continue
				}
				res, err := r.eng.RunBusyPeriod(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Stats.StoppedAt
			}
		}
		b.ReportMetric(float64(len(runs)), "states/op")
		b.ReportMetric(float64(cycles), "cycles/op")
	})
}

// BenchmarkExhaustiveFullHorizon is the before side of the busy-period
// pair: every cluster representative of the reference configuration
// simulated by Engine.Run for the whole proof horizon, as Explore did
// before the cut.
func BenchmarkExhaustiveFullHorizon(b *testing.B) { benchRepresentatives(b, false) }

// BenchmarkExhaustiveBusyPeriod is the after side: the same
// representatives, each run by RunBusyPeriod to its first idle instant.
// cycles/op on each side shows how much of the horizon the cut skips;
// TestBusyPeriodCutMatchesFullHorizon is the *Agree test of this pair.
func BenchmarkExhaustiveBusyPeriod(b *testing.B) { benchRepresentatives(b, true) }

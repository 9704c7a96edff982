// Benchmarks regenerating every table and figure of the paper (at
// bench-friendly scale; the cmd/ tools run the full-size experiments) and
// ablation benches for the design choices called out in DESIGN.md §5.
//
// Run with: go test -bench=. -benchmem
package wormnoc_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/exp"
	"wormnoc/internal/noc"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// BenchmarkTable2Didactic regenerates the four analytic columns of
// Table II (SB, XLWX, IBN b=10, IBN b=2) on the Section V example.
func BenchmarkTable2Didactic(b *testing.B) {
	cases := []struct {
		buf int
		opt core.Options
	}{
		{2, core.Options{Method: core.SB}},
		{2, core.Options{Method: core.XLWX}},
		{10, core.Options{Method: core.IBN}},
		{2, core.Options{Method: core.IBN}},
	}
	want := []noc.Cycles{336, 460, 396, 348}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for c, tc := range cases {
			res, err := core.Analyze(workload.Didactic(tc.buf), tc.opt)
			if err != nil {
				b.Fatal(err)
			}
			if res.R(2) != want[c] {
				b.Fatalf("column %d: R(τ3) = %d, want %d", c, res.R(2), want[c])
			}
		}
	}
}

// BenchmarkTable2Simulation regenerates the simulation columns of
// Table II: one cycle-accurate run of the didactic MPB scenario per
// buffer depth (the full offset sweep is cmd/didactic's job).
func BenchmarkTable2Simulation(b *testing.B) {
	for _, buf := range []int{10, 2} {
		b.Run(fmt.Sprintf("buf=%d", buf), func(b *testing.B) {
			sys := workload.Didactic(buf)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sys, sim.Config{Duration: 20_000})
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed[2] == 0 {
					b.Fatal("τ3 completed no packets")
				}
			}
		})
	}
}

// BenchmarkFig4a4x4 regenerates one x-axis point of Figure 4(a):
// 4x4 mesh, SB/XLWX/IBN2/IBN100 over synthetic flow sets.
func BenchmarkFig4a4x4(b *testing.B) {
	benchSweepPoint(b, 4, 4, 220)
}

// BenchmarkFig4b8x8 regenerates one x-axis point of Figure 4(b).
func BenchmarkFig4b8x8(b *testing.B) {
	benchSweepPoint(b, 8, 8, 360)
}

func benchSweepPoint(b *testing.B, w, h, flows int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := exp.RunSweep(exp.SweepConfig{
			Width: w, Height: h,
			FlowCounts:   []int{flows},
			SetsPerPoint: 5,
			Seed:         int64(i),
			Workers:      1,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkFig5AV regenerates a slice of Figure 5: random AV-benchmark
// mappings on a subset of the 26 topologies.
func BenchmarkFig5AV(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := exp.RunAV(exp.AVConfig{
			Topologies:          [][2]int{{2, 2}, {4, 4}, {8, 8}},
			MappingsPerTopology: 10,
			Seed:                int64(i),
			Workers:             1,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkBufferAblation regenerates the Section VI buffer-size study at
// bench scale (IBN at depths 2..100 plus XLWX over shared flow sets).
func BenchmarkBufferAblation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := exp.RunBufferAblation(exp.BufferAblationConfig{
			Width: 4, Height: 4,
			FlowCounts:   []int{220},
			SetsPerPoint: 5,
			Seed:         int64(i),
			Workers:      1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if v := exp.CheckBufferMonotonicity(res); v != "" {
			b.Fatalf("buffer monotonicity violated: %s", v)
		}
	}
}

// BenchmarkAblationEq7 compares the clamped Equation 8 against the raw
// Equation 7 (DESIGN.md §5: the min() is what keeps IBN never looser than
// XLWX).
func BenchmarkAblationEq7(b *testing.B) {
	for _, tc := range []struct {
		name string
		opt  core.Options
	}{
		{"eq8", core.Options{Method: core.IBN, BufDepth: 100}},
		{"eq7", core.Options{Method: core.IBN, BufDepth: 100, Eq7: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			topo := noc.MustMesh(4, 4, noc.RouterConfig{BufDepth: 100, LinkLatency: 1})
			sys, err := workload.Synthetic(topo, workload.SynthConfig{NumFlows: 200, Seed: 11})
			if err != nil {
				b.Fatal(err)
			}
			sets := core.BuildSets(sys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewEngineWithSets(sys, sets).Analyze(tc.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalysisScaling measures analysis cost versus flow-set size
// for each method (the memoised I^down recursion keeps XLWX/IBN close to
// SB). The interference sets are built outside the timed loop, so this is
// the fixed point alone; BenchmarkBuildSets times the set derivation on
// the same platforms.
func BenchmarkAnalysisScaling(b *testing.B) {
	for _, p := range analysisPlatforms {
		sys := p.system(b, 3)
		for _, m := range []core.Method{core.SB, core.XLWX, core.IBN} {
			b.Run(fmt.Sprintf("%s/%s", m, p.name), func(b *testing.B) {
				sets := core.BuildSets(sys)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.NewEngineWithSets(sys, sets).Analyze(core.Options{Method: m}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// analysisPlatform is one regime of the analysis-side benchmarks: a
// synthetic flow set of n flows on a w×h mesh with 2-flit buffers.
type analysisPlatform struct {
	name    string
	w, h, n int
}

// analysisPlatforms are the regimes BenchmarkAnalysisScaling and
// BenchmarkBuildSets share: the Fig. 4(b) 8×8 mesh at growing flow
// counts, and the large regime — 400 flows crowded onto the 6×6 mesh of
// a 36-core CMP (the SESC cmp36 configuration), about twice as many flows
// per link as the 8×8 mesh at n=400.
var analysisPlatforms = []analysisPlatform{
	{"n=50", 8, 8, 50},
	{"n=100", 8, 8, 100},
	{"n=200", 8, 8, 200},
	{"n=400", 8, 8, 400},
	{"6x6/n=400", 6, 6, 400},
}

func (p analysisPlatform) system(b *testing.B, seed int64) *traffic.System {
	topo := noc.MustMesh(p.w, p.h, noc.RouterConfig{BufDepth: 2, LinkLatency: 1})
	sys, err := workload.Synthetic(topo, workload.SynthConfig{NumFlows: p.n, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkWhatIfScratch and BenchmarkWhatIfIncremental measure the
// edit/re-analyse loop of a what-if exploration on the platform of
// BenchmarkAnalysisScaling: every iteration applies one single-flow
// delta and recomputes the IBN bounds. Scratch pays a fresh engine
// (interference sets + cold fixed points) per edit; the incremental
// engine invalidates only the affected-flow frontier and warm-starts
// the rest. The two edits alternate so no iteration is a cacheable
// no-op. cmd/benchjson pairs the two by scenario and reports the
// speedup (the /v1/whatif endpoint is held to >=5x on the single-flow
// edits at n=400); "period-mid" edits a median-priority flow, whose
// dependent frontier is real, as the honest middle ground.
func BenchmarkWhatIfScratch(b *testing.B)     { benchWhatIf(b, false) }
func BenchmarkWhatIfIncremental(b *testing.B) { benchWhatIf(b, true) }

func benchWhatIf(b *testing.B, incremental bool) {
	for _, n := range []int{50, 200, 400} {
		topo := noc.MustMesh(8, 8, noc.RouterConfig{BufDepth: 2, LinkLatency: 1})
		sys, err := workload.Synthetic(topo, workload.SynthConfig{NumFlows: n, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		lowest, median := flowsByPriorityRank(sys)
		for _, sc := range []struct {
			name   string
			deltas [2]core.Delta
		}{
			{fmt.Sprintf("period/n=%d", n), periodToggle(sys, lowest)},
			{fmt.Sprintf("remap/n=%d", n), remapToggle(sys, lowest)},
			{fmt.Sprintf("period-mid/n=%d", n), periodToggle(sys, median)},
		} {
			b.Run(sc.name, func(b *testing.B) {
				if incremental {
					benchWhatIfIncremental(b, sys, sc.deltas)
				} else {
					benchWhatIfScratch(b, sys, sc.deltas)
				}
			})
		}
	}
}

func benchWhatIfScratch(b *testing.B, sys *traffic.System, deltas [2]core.Delta) {
	cur := sys
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, err := core.ApplyDelta(cur, deltas[i%2])
		if err != nil {
			b.Fatal(err)
		}
		cur = next
		if _, err := core.Analyze(cur, core.Options{Method: core.IBN}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchWhatIfIncremental(b *testing.B, sys *traffic.System, deltas [2]core.Delta) {
	inc := core.NewIncremental(sys)
	ctx := context.Background()
	// Warm the engine through one full toggle: the first analysis is a
	// full run by design, and the loop below resumes on deltas[0].
	for _, d := range deltas {
		if err := inc.Apply(d); err != nil {
			b.Fatal(err)
		}
		if _, err := inc.Analyze(ctx, core.Options{Method: core.IBN}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := inc.Apply(deltas[i%2]); err != nil {
			b.Fatal(err)
		}
		if _, err := inc.Analyze(ctx, core.Options{Method: core.IBN}); err != nil {
			b.Fatal(err)
		}
	}
}

// flowsByPriorityRank returns the indices of the lowest-priority flow
// (the classic what-if subject: nothing depends on it) and the
// median-priority flow (roughly half the set can depend on it).
func flowsByPriorityRank(sys *traffic.System) (lowest, median int) {
	order := make([]int, sys.NumFlows())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return sys.Flow(order[a]).Priority < sys.Flow(order[b]).Priority
	})
	return order[len(order)-1], order[len(order)/2]
}

// periodToggle alternates flow k's period between its base value and
// base+64 (growing the period keeps the deadline valid either way).
func periodToggle(sys *traffic.System, k int) [2]core.Delta {
	base := sys.Flow(k).Period
	return [2]core.Delta{
		{Kind: core.DeltaPeriod, Flow: k, Cycles: base + 64},
		{Kind: core.DeltaPeriod, Flow: k, Cycles: base},
	}
}

// remapToggle alternates flow k's destination between its base node and
// the next node that is neither its source nor the base destination.
func remapToggle(sys *traffic.System, k int) [2]core.Delta {
	f := sys.Flow(k)
	nodes := sys.Topology().NumNodes()
	alt := f.Dst
	for {
		alt = (alt + 1) % noc.NodeID(nodes)
		if alt != f.Src && alt != f.Dst {
			break
		}
	}
	return [2]core.Delta{
		{Kind: core.DeltaMapping, Flow: k, Src: f.Src, Dst: alt},
		{Kind: core.DeltaMapping, Flow: k, Src: f.Src, Dst: f.Dst},
	}
}

// BenchmarkBuildSets measures interference-set construction — the link
// index, the contention domains, S^D/S^I and the per-pair table — on the
// regimes of BenchmarkAnalysisScaling from n=100 up.
func BenchmarkBuildSets(b *testing.B) {
	for _, p := range analysisPlatforms {
		if p.n < 100 {
			continue
		}
		b.Run(p.name, func(b *testing.B) {
			sys := p.system(b, 5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.BuildSets(sys)
			}
		})
	}
}

// staggeredOffsets spreads first releases uniformly over [0, window),
// deterministically in seed, to shape the benchmark load level.
func staggeredOffsets(n int, window noc.Cycles, seed int64) []noc.Cycles {
	rng := rand.New(rand.NewSource(seed))
	offs := make([]noc.Cycles, n)
	for i := range offs {
		offs[i] = noc.Cycles(rng.Int63n(int64(window)))
	}
	return offs
}

// BenchmarkSimulator measures simulator throughput (simulated cycles per
// wall-clock second) on a 4x4 mesh across load regimes. "saturated" is
// the historical scenario (all flows released at cycle 0, the mesh
// drains a synchronized burst); "moderate" staggers releases across the
// horizon; "low" also spreads the periods so packets mostly cross an
// idle mesh. The event-driven engine's cycle skipping and dirty-link
// arbitration pay off as load drops.
func BenchmarkSimulator(b *testing.B) {
	topo := noc.MustMesh(4, 4, noc.RouterConfig{BufDepth: 4, LinkLatency: 1})
	sys, err := workload.Synthetic(topo, workload.SynthConfig{NumFlows: 32, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	sparse, err := workload.Synthetic(topo, workload.SynthConfig{
		NumFlows: 32, Seed: 9, PeriodMin: 40_000, PeriodMax: 400_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, sc := range []struct {
		name    string
		sys     *traffic.System
		horizon noc.Cycles
		offsets []noc.Cycles
	}{
		{"low", sparse, 400_000, staggeredOffsets(32, 400_000, 5)},
		{"moderate", sys, 100_000, staggeredOffsets(32, 100_000, 5)},
		{"saturated", sys, 100_000, nil},
	} {
		b.Run(sc.name, func(b *testing.B) {
			eng := sim.NewEngine(sc.sys)
			cfg := sim.Config{Duration: sc.horizon, Offsets: sc.offsets}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sc.horizon)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

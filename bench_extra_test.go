package wormnoc_test

import (
	"fmt"
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/priority"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// BenchmarkSLA measures the stage-level baseline at sweep scale.
func BenchmarkSLA(b *testing.B) {
	topo := noc.MustMesh(4, 4, noc.RouterConfig{BufDepth: 8, LinkLatency: 1})
	sys, err := workload.Synthetic(topo, workload.SynthConfig{NumFlows: 200, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	sets := core.BuildSets(sys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewEngineWithSets(sys, sets).Analyze(core.Options{Method: core.SLA}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorMeshScaling measures simulator throughput versus
// mesh size at a fixed per-node load, under both the historical
// synchronized burst (all releases at cycle 0, "saturated") and
// staggered releases ("moderate", where the event-driven engine's
// dirty-link arbitration avoids scanning the whole mesh every cycle).
func BenchmarkSimulatorMeshScaling(b *testing.B) {
	for _, dim := range []int{2, 4, 8} {
		topo := noc.MustMesh(dim, dim, noc.RouterConfig{BufDepth: 4, LinkLatency: 1})
		sys, err := workload.Synthetic(topo, workload.SynthConfig{
			NumFlows: 2 * dim * dim, Seed: 21,
		})
		if err != nil {
			b.Fatal(err)
		}
		const horizon = 50_000
		for _, load := range []string{"saturated", "moderate"} {
			var offsets []noc.Cycles
			if load == "moderate" {
				offsets = staggeredOffsets(2*dim*dim, horizon, 17)
			}
			b.Run(fmt.Sprintf("%dx%d/%s", dim, dim, load), func(b *testing.B) {
				eng := sim.NewEngine(sys)
				cfg := sim.Config{Duration: horizon, Offsets: offsets}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(horizon)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
			})
		}
	}
}

// BenchmarkAudsley measures the priority-assignment search (O(n²)
// analyses).
func BenchmarkAudsley(b *testing.B) {
	topo := noc.MustMesh(3, 3, noc.RouterConfig{BufDepth: 2, LinkLatency: 1})
	sys, err := workload.Synthetic(topo, workload.SynthConfig{NumFlows: 16, Seed: 31})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := priority.Audsley(topo, sys.Flows(), core.Options{Method: core.IBN}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorstCaseSearch measures the adversarial phasing search.
// "didactic" is the historical scenario — 3 flows on a small topology,
// busy for a third of each hyperperiod. "synthetic" searches a 4x4 mesh
// flow set whose random probe phasings leave the mesh mostly idle, the
// regime the search actually spends its time in during oracle runs —
// and where the event-driven engine's cycle skipping dominates.
func BenchmarkWorstCaseSearch(b *testing.B) {
	topo := noc.MustMesh(4, 4, noc.RouterConfig{BufDepth: 4, LinkLatency: 1})
	synth, err := workload.Synthetic(topo, workload.SynthConfig{NumFlows: 32, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	for _, sc := range []struct {
		name     string
		sys      *traffic.System
		duration noc.Cycles
		target   int
	}{
		{"didactic", workload.Didactic(2), 10_000, 2},
		{"synthetic", synth, 20_000, 0},
	} {
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.SearchWorstCase(sc.sys, sim.SearchConfig{
					Base:     sim.Config{Duration: sc.duration},
					Target:   sc.target,
					Restarts: 2, RefineSteps: 1, ProbesPerFlow: 4,
					Seed: int64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

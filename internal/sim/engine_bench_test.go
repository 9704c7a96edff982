package sim_test

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"wormnoc/internal/noc"
	"wormnoc/internal/oracle"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// benchScenario is one engine benchmark point. The set spans the load
// regimes the event-driven rewrite targets: under low and moderate load
// the engine skips idle cycles and only re-arbitrates dirty links, so
// it should beat the reference by a wide margin; under a saturated
// burst every cycle executes and the requirement is merely "no slower";
// the tiny point is the exhaustive prover's regime of short runs on
// 2×2 meshes, where per-run and per-cycle overheads dominate.
// BenchmarkEngine and BenchmarkEngineReference run the *same* scenarios
// through the two engines, so their ratio is the before/after number
// recorded in BENCH_sim.json.
type benchScenario struct {
	name string
	sys  *traffic.System
	cfg  sim.Config
}

// staggeredOffsets spreads first releases uniformly over [0, window),
// deterministically in seed.
func staggeredOffsets(n int, window noc.Cycles, seed int64) []noc.Cycles {
	rng := rand.New(rand.NewSource(seed))
	offs := make([]noc.Cycles, n)
	for i := range offs {
		offs[i] = noc.Cycles(rng.Int63n(int64(window)))
	}
	return offs
}

func synth4x4(b testing.TB, cfg workload.SynthConfig) *traffic.System {
	return synthMesh(b, noc.RouterConfig{BufDepth: 4, LinkLatency: 1}, cfg)
}

// synthMesh is a synthetic system on a 4×4 mesh of platform rc.
func synthMesh(b testing.TB, rc noc.RouterConfig, cfg workload.SynthConfig) *traffic.System {
	sys, err := workload.Synthetic(noc.MustMesh(4, 4, rc), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// platformClass is a (linkl, routl) pair: the platform timing the fast
// path's batching depends on.
type platformClass struct{ linkl, routl noc.Cycles }

// platformClasses are the classes of the oracle's default scenario
// distribution.
var platformClasses = []platformClass{{1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2}}

func (pc platformClass) String() string { return fmt.Sprintf("linkl=%d_routl=%d", pc.linkl, pc.routl) }

// router is the class's platform at buffer depth buf.
func (pc platformClass) router(buf int) noc.RouterConfig {
	return noc.RouterConfig{BufDepth: buf, LinkLatency: pc.linkl, RouteLatency: pc.routl}
}

func classOf(sys *traffic.System) platformClass {
	rc := sys.Topology().Config()
	return platformClass{rc.LinkLatency, rc.RouteLatency}
}

func engineScenarios(b testing.TB) []benchScenario {
	synth := workload.SynthConfig{NumFlows: 32, Seed: 9}
	sys := synth4x4(b, synth)
	sparse := synth4x4(b, workload.SynthConfig{
		NumFlows: 32, Seed: 9, PeriodMin: 40_000, PeriodMax: 400_000,
	})
	// A contended tinyGen draw: 3 flows on a 2×2 mesh, buf=4.
	tinySeed := oracle.DeriveSeed(0x7147, 3)
	tiny, err := oracle.Generate(tinySeed, tinyGen).System()
	if err != nil {
		b.Fatal(err)
	}
	return []benchScenario{
		// Sparse periodic traffic over a long horizon: packets mostly
		// traverse an otherwise-idle mesh.
		{"low", sparse, sim.Config{
			Duration: 400_000,
			Offsets:  staggeredOffsets(32, 400_000, 5),
		}},
		// Releases staggered across the horizon: a handful of flows
		// active at a time.
		{"moderate", sys, sim.Config{
			Duration: 100_000,
			Offsets:  staggeredOffsets(32, 100_000, 5),
		}},
		// Every flow released at cycle 0: the mesh drains a synchronized
		// burst, with transfers on most links on most cycles.
		{"saturated", sys, sim.Config{Duration: 100_000}},
		// The same burst on two-cycle links, and on one-cycle links with
		// two-cycle routing: the fast path's multi-cycle rounds and its
		// header readiness bounds.
		{"linkl2", synthMesh(b, noc.RouterConfig{BufDepth: 4, LinkLatency: 2}, synth), sim.Config{Duration: 100_000}},
		{"routl2", synthMesh(b, noc.RouterConfig{BufDepth: 4, LinkLatency: 1, RouteLatency: 2}, synth), sim.Config{Duration: 100_000}},
		// The paper's Section V example (Table II, buf=2).
		{"didactic", workload.Didactic(2), sim.Config{Duration: 20_000}},
		// The exhaustive prover's regime: a `nocfuzz exhaust` scenario
		// simulated for 2 000 cycles from random offsets.
		{"tiny", tiny, sim.Config{
			Duration: 2_000,
			Offsets:  randomOffsets(tiny, tinySeed),
		}},
	}
}

// BenchmarkEngine measures the event-driven engine (warm, reused across
// iterations — the steady state of searches and sweeps).
func BenchmarkEngine(b *testing.B) {
	for _, sc := range engineScenarios(b) {
		b.Run(sc.name, func(b *testing.B) {
			eng := sim.NewEngine(sc.sys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(sc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineReference measures the retained cycle-scanning
// reference engine on the identical scenarios — the "before" of every
// BenchmarkEngine number.
func BenchmarkEngineReference(b *testing.B) {
	for _, sc := range engineScenarios(b) {
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunReference(sc.sys, sc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineReuse isolates the reset/reuse path the adversarial
// search leans on: repeated runs of one Engine with changing phasings.
// The acceptance bar is ~0 allocs/op.
func BenchmarkEngineReuse(b *testing.B) {
	sys := synth4x4(b, workload.SynthConfig{NumFlows: 32, Seed: 9})
	eng := sim.NewEngine(sys)
	n := sys.NumFlows()
	offs := make([]noc.Cycles, n)
	rng := rand.New(rand.NewSource(11))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f := 0; f < n; f++ {
			offs[f] = noc.Cycles(rng.Int63n(int64(sys.Flow(f).Period)))
		}
		if _, err := eng.Run(sim.Config{Duration: 20_000, Offsets: offs}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTraced measures a fully traced run: the trace hot path
// appends to a reusable buffer and flushes in ~32KiB batches, so a
// traced run costs a handful of Writes, not one allocation per flit.
func BenchmarkEngineTraced(b *testing.B) {
	sys := synth4x4(b, workload.SynthConfig{NumFlows: 32, Seed: 9})
	cfg := sim.Config{
		Duration:    100_000,
		Offsets:     staggeredOffsets(32, 100_000, 5),
		TraceWriter: io.Discard,
	}
	eng := sim.NewEngine(sys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEngineSteadyStateAllocs pins the zero-alloc contract: a warm
// Engine.Run allocates (almost) nothing, with or without tracing, on the
// one-cycle platform and on one with two-cycle links and routing. The
// small slack absorbs one-off growth of internal rings on unlucky
// phasings.
func TestEngineSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run skipped in -short mode")
	}
	for _, rc := range []noc.RouterConfig{
		{BufDepth: 4, LinkLatency: 1},
		{BufDepth: 4, LinkLatency: 2, RouteLatency: 2},
	} {
		sys := synthMesh(t, rc, workload.SynthConfig{NumFlows: 32, Seed: 9})
		cfg := sim.Config{
			Duration: 50_000,
			Offsets:  staggeredOffsets(32, 50_000, 5),
		}
		eng := sim.NewEngine(sys)
		// Warm up: let every ring and the packet slab reach steady size.
		for i := 0; i < 3; i++ {
			if _, err := eng.Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := eng.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("linkl=%d routl=%d: warm Engine.Run allocates %.1f objects/run, want ~0",
				rc.LinkLatency, rc.RouteLatency, allocs)
		}

		traced := cfg
		traced.TraceWriter = io.Discard
		for i := 0; i < 3; i++ {
			if _, err := eng.Run(traced); err != nil {
				t.Fatal(err)
			}
		}
		res, err := eng.Run(traced)
		if err != nil {
			t.Fatal(err)
		}
		flits := 0
		for i := range res.Completed {
			flits += res.Completed[i] * sys.Flow(i).Length
		}
		if flits == 0 {
			t.Fatal("traced scenario completed no packets")
		}
		allocs = testing.AllocsPerRun(5, func() {
			if _, err := eng.Run(traced); err != nil {
				t.Fatal(err)
			}
		})
		// The old engine allocated per flit (fmt.Fprintf); the batched path
		// must stay far below one allocation per transferred flit.
		if allocs > 8 {
			t.Errorf("linkl=%d routl=%d: warm traced Engine.Run allocates %.1f objects/run over %d delivered flits, want ~0",
				rc.LinkLatency, rc.RouteLatency, allocs, flits)
		}
	}
}

// TestEngineBenchScenariosAgree double-checks that every benchmark
// scenario produces identical results on both engines — so the ratios
// recorded in BENCH_sim.json compare equal computations.
func TestEngineBenchScenariosAgree(t *testing.T) {
	for _, sc := range engineScenarios(t) {
		cfg := sc.cfg
		if cfg.Duration > 100_000 && testing.Short() {
			cfg.Duration = 100_000
		}
		ref, err := sim.RunReference(sc.sys, cfg)
		if err != nil {
			t.Fatalf("%s: reference: %v", sc.name, err)
		}
		got, err := sim.Run(sc.sys, cfg)
		if err != nil {
			t.Fatalf("%s: event-driven: %v", sc.name, err)
		}
		mustEqualResults(t, fmt.Sprintf("bench scenario %s", sc.name), ref, got)
	}
}

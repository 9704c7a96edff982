package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/oracle"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

func TestSearchWorstCaseDidactic(t *testing.T) {
	sys := workload.Didactic(2)
	res, err := sim.SearchWorstCase(sys, sim.SearchConfig{
		Base:   sim.Config{Duration: 20_000},
		Target: 2,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The exhaustive single-flow sweep finds 334; the joint search must
	// land in the same region and never beyond the IBN bound.
	if res.Worst < 300 {
		t.Errorf("search found only %d; exhaustive sweep reaches 334", res.Worst)
	}
	if res.Worst > 348 {
		t.Errorf("search found %d beyond the IBN bound 348", res.Worst)
	}
	if res.Runs < 10 {
		t.Errorf("suspiciously few runs: %d", res.Runs)
	}
	if len(res.Offsets) != sys.NumFlows() {
		t.Errorf("offsets shape: %v", res.Offsets)
	}
	// Replaying the reported phasing reproduces the reported latency.
	replay, err := sim.Run(sys, sim.Config{Duration: 20_000, Offsets: res.Offsets})
	if err != nil {
		t.Fatal(err)
	}
	if replay.WorstLatency[2] != res.Worst {
		t.Errorf("replay gives %d, search reported %d", replay.WorstLatency[2], res.Worst)
	}
}

func TestSearchWorstCaseDeterministic(t *testing.T) {
	sys := workload.Didactic(2)
	cfg := sim.SearchConfig{
		Base: sim.Config{Duration: 8_000}, Target: 2, Seed: 9,
		Restarts: 3, RefineSteps: 1, ProbesPerFlow: 4,
	}
	a, err := sim.SearchWorstCase(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.SearchWorstCase(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Worst != b.Worst || a.Runs != b.Runs {
		t.Errorf("search not deterministic: %+v vs %+v", a, b)
	}
	// Restart probes and refinement batches share the worker slots, so
	// the worker count must not leak into the result.
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		got, err := sim.SearchWorstCase(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Worst != a.Worst || got.Runs != a.Runs || !reflect.DeepEqual(got.Offsets, a.Offsets) {
			t.Errorf("Workers=%d: search gave %+v, default workers %+v", workers, got, a)
		}
	}
}

func TestSearchWorstCaseErrors(t *testing.T) {
	sys := workload.Didactic(2)
	if _, err := sim.SearchWorstCase(sys, sim.SearchConfig{Base: sim.Config{Duration: 100}, Target: 9}); err == nil {
		t.Error("bad target must fail")
	}
	if _, err := sim.SearchWorstCase(sys, sim.SearchConfig{Target: 0}); err == nil {
		t.Error("zero duration must fail")
	}
	// The first restart starts from Base.Offsets: too few would start
	// the remaining flows at offset 0, too many would be dropped.
	for _, k := range []int{1, sys.NumFlows() - 1, sys.NumFlows() + 3} {
		_, err := sim.SearchWorstCase(sys, sim.SearchConfig{
			Base: sim.Config{Duration: 100, Offsets: make([]noc.Cycles, k)}, Target: 0,
		})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d base offsets for %d flows", k, sys.NumFlows())) {
			t.Errorf("%d offsets for %d flows: got error %v", k, sys.NumFlows(), err)
		}
	}
	// A table's keys mean nothing for another system's flows.
	table := new(sim.BusyPeriodTable)
	if _, err := sim.SearchWorstCase(sys, sim.SearchConfig{Base: sim.Config{Duration: 100}, Table: table}); err != nil {
		t.Fatal(err)
	}
	other := workload.Didactic(10)
	if _, err := sim.SearchWorstCase(other, sim.SearchConfig{Base: sim.Config{Duration: 100}, Table: table}); err == nil ||
		!strings.Contains(err.Error(), "busy-period table serves one system") {
		t.Errorf("a table shared across two systems: got error %v", err)
	}
}

// TestSearchRespectsIBNOnRandomScenario: adversarial phasing search on a
// random MPB-prone system never breaks the IBN bound.
func TestSearchRespectsIBNOnRandomScenario(t *testing.T) {
	topo := noc.MustMesh(3, 3, noc.RouterConfig{BufDepth: 4, LinkLatency: 1, RouteLatency: 0})
	sys, err := workload.Synthetic(topo, workload.SynthConfig{
		NumFlows: 8, PeriodMin: 1_000, PeriodMax: 20_000, LenMin: 16, LenMax: 256, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	ibn, err := core.Analyze(sys, core.Options{Method: core.IBN})
	if err != nil {
		t.Fatal(err)
	}
	for target := 0; target < sys.NumFlows(); target += 3 {
		if ibn.Flows[target].Status != core.Schedulable {
			continue
		}
		res, err := sim.SearchWorstCase(sys, sim.SearchConfig{
			Base:     sim.Config{Duration: 60_000},
			Target:   target,
			Restarts: 3, RefineSteps: 1, ProbesPerFlow: 4,
			Seed: int64(target),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Worst > ibn.R(target) {
			t.Errorf("flow %d: adversarial search found %d beyond IBN bound %d",
				target, res.Worst, ibn.R(target))
		}
	}
}

// probeScenario is one BenchmarkSearchProbe* workload: a system and 64
// probe phasings drawn the way SearchWorstCase draws them (the target at
// offset 0, every other flow uniform over its period), the targets
// cycling through the flows. The oracle* scenarios are oracle-
// distribution systems under the oracle's default 12 000-cycle horizon;
// the tiny* ones are `nocfuzz exhaust` systems under the 2 000-cycle
// horizon of the prove regime's searches, whose probes walk a
// busy-period table (DESIGN.md §10).
type probeScenario struct {
	name    string
	sys     *traffic.System
	cfgs    []sim.Config
	targets []int
}

func probeScenarios(b testing.TB) []probeScenario {
	var out []probeScenario
	for _, kind := range []struct {
		name     string
		stream   int64
		gen      oracle.GenConfig
		duration noc.Cycles
	}{
		{"oracle", 0x9B0E, oracle.GenConfig{}, 12_000},
		{"tiny", 0x9B0F, tinyGen, 2_000},
	} {
		for i := int64(0); i < 4; i++ {
			seed := oracle.DeriveSeed(kind.stream, i)
			sys, err := oracle.Generate(seed, kind.gen).System()
			if err != nil {
				b.Fatal(err)
			}
			n := sys.NumFlows()
			jitter := false
			for f := 0; f < n; f++ {
				jitter = jitter || sys.Flow(f).Jitter > 0
			}
			rng := rand.New(rand.NewSource(seed))
			sc := probeScenario{name: fmt.Sprintf("%s%d", kind.name, i), sys: sys}
			for p := 0; p < 64; p++ {
				target := p % n
				offs := make([]noc.Cycles, n)
				for f := range offs {
					if f != target {
						offs[f] = noc.Cycles(rng.Int63n(int64(sys.Flow(f).Period)))
					}
				}
				sc.cfgs = append(sc.cfgs, sim.Config{Duration: kind.duration, Offsets: offs, InjectJitter: jitter, JitterSeed: seed})
				sc.targets = append(sc.targets, target)
			}
			out = append(out, sc)
		}
	}
	return out
}

// benchProbes runs the scenario's probes round-robin on one warm engine.
// Scoped probes walk a busy-period table the way a search's do, with a
// fresh table for each pass over the 64 probes, so b.N never measures a
// table warmed across passes.
func benchProbes(b *testing.B, scoped bool) {
	for _, sc := range probeScenarios(b) {
		b.Run(sc.name, func(b *testing.B) {
			cfgs := sc.cfgs
			if scoped {
				cfgs = make([]sim.Config, len(sc.cfgs))
				for p, cfg := range sc.cfgs {
					cfgs[p] = sim.Scoped(cfg, sc.targets[p])
				}
			}
			eng := sim.NewEngine(sc.sys)
			var table *sim.BusyPeriodTable
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := i % len(cfgs)
				cfg := cfgs[p]
				if scoped {
					if p == 0 {
						table = new(sim.BusyPeriodTable)
					}
					cfg = sim.WithTable(cfg, table)
				}
				if _, err := eng.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchProbeFull is the "before" of the search-probe pair:
// phasing-search probes simulated over the full horizon, the way every
// probe ran before probes were target-scoped.
func BenchmarkSearchProbeFull(b *testing.B) { benchProbes(b, false) }

// BenchmarkSearchProbeScoped measures the same probes target-scoped, as
// SearchWorstCase runs them: each ends once its target can no longer
// complete a packet inside the horizon, and the jitter-free tiny* probes
// also walk a busy-period table (DESIGN.md §10).
func BenchmarkSearchProbeScoped(b *testing.B) { benchProbes(b, true) }

// TestSearchProbeBenchAgree anchors the search-probe pair: on every
// probe both sides observe the same target row. It also pins which side
// of the walk's gate each scenario falls on: every tiny* probe walks its
// table and no oracle* probe does, so the oracle* pairs measure the
// scoped probes of the verify regime alone.
func TestSearchProbeBenchAgree(t *testing.T) {
	for _, sc := range probeScenarios(t) {
		eng := sim.NewEngine(sc.sys)
		table := new(sim.BusyPeriodTable)
		tiny := strings.HasPrefix(sc.name, "tiny")
		for p, cfg := range sc.cfgs {
			full, err := sim.Run(sc.sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Run(sim.WithTable(sim.Scoped(cfg, sc.targets[p]), table))
			if err != nil {
				t.Fatal(err)
			}
			if want, row := rowOf(full, sc.targets[p]), rowOf(got, sc.targets[p]); !reflect.DeepEqual(want, row) {
				t.Fatalf("%s probe %d: scoped row %+v, full row %+v", sc.name, p, row, want)
			}
			if sim.Walked(eng) != tiny {
				t.Fatalf("%s probe %d: walked the table %v, want %v", sc.name, p, sim.Walked(eng), tiny)
			}
		}
	}
}

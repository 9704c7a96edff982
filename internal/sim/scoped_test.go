package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"wormnoc/internal/noc"
	"wormnoc/internal/oracle"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// flowRow is one flow's row of a Result: everything a target-scoped run
// must reproduce exactly.
type flowRow struct {
	Worst, Total                noc.Cycles
	Completed, Released, Misses int
	Occupancy                   []int
	Latencies                   []noc.Cycles
}

func rowOf(r *sim.Result, f int) flowRow {
	row := flowRow{
		Worst: r.WorstLatency[f], Total: r.TotalLatency[f],
		Completed: r.Completed[f], Released: r.Released[f], Misses: r.DeadlineMisses[f],
		Occupancy: append([]int(nil), r.MaxOccupancy[f]...),
	}
	if r.Latencies != nil {
		row.Latencies = append([]noc.Cycles(nil), r.Latencies[f]...)
	}
	return row
}

type scopedCase struct {
	label string
	sys   *traffic.System
	cfg   sim.Config
}

// withPeriodJitter returns sys with every flow's release jitter set to
// one cycle short of its period, so that a target's last release is
// regularly still pending when its previous packet completes — the case
// the stop rule counts periodic ticks for. Dropping that part of the
// rule makes TestScopedRunsMatchFullRuns fail on the "jittered capped"
// cases.
func withPeriodJitter(t testing.TB, sys *traffic.System) *traffic.System {
	doc := sys.ToDocument()
	for i := range doc.Flows {
		doc.Flows[i].Jitter = doc.Flows[i].Period - 1
	}
	out, err := doc.System()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// scopedCorpus is the differential suite's corpus — the 220 scenarios ×
// diffConfigs of TestDifferentialEngines and the systems of
// TestDifferentialSaturated — plus four loaded short-period meshes. The
// latter two sets also run with period-long jitter injected, with a
// packet cap, and with both.
func scopedCorpus(t testing.TB) []scopedCase {
	var cases []scopedCase
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
		for ci, cfg := range diffConfigs(seed, sys.NumFlows(), periods) {
			cases = append(cases, scopedCase{fmt.Sprintf("scenario %d cfg %d", i, ci), sys, cfg})
		}
	}
	variants := func(label string, sys *traffic.System, cfg sim.Config, seed int64) {
		jittered, capped := cfg, cfg
		jittered.InjectJitter, jittered.JitterSeed = true, seed
		capped.MaxPacketsPerFlow = 2
		both := capped
		both.InjectJitter, both.JitterSeed = true, seed
		jsys := withPeriodJitter(t, sys)
		cases = append(cases,
			scopedCase{label, sys, cfg},
			scopedCase{label + " jittered", jsys, jittered},
			scopedCase{label + " capped", sys, capped},
			scopedCase{label + " jittered capped", jsys, both})
	}
	for i := 0; i < 40; i++ {
		seed := oracle.DeriveSeed(0x5A70, int64(i))
		sys, err := oracle.Generate(seed, oracle.GenConfig{}).System()
		if err != nil {
			t.Fatalf("saturated scenario %d: %v", i, err)
		}
		variants(fmt.Sprintf("saturated scenario %d", i), sys, sim.Config{Duration: 6_000, RecordLatencies: i%3 == 0}, seed)
	}
	for _, buf := range []int{2, 3, 4, 8} {
		topo := noc.MustMesh(4, 4, noc.RouterConfig{BufDepth: buf, LinkLatency: 1})
		sys, err := workload.Synthetic(topo, workload.SynthConfig{NumFlows: 32, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		variants(fmt.Sprintf("saturated mesh buf=%d", buf), sys, sim.Config{Duration: 20_000}, int64(buf))
	}
	for seed := int64(1); seed <= 4; seed++ {
		topo := noc.MustMesh(4, 4, noc.RouterConfig{BufDepth: 2 + int(seed%3), LinkLatency: 1})
		sys, err := workload.Synthetic(topo, workload.SynthConfig{
			NumFlows: 16, PeriodMin: 500, PeriodMax: 3_000, LenMin: 16, LenMax: 128, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		variants(fmt.Sprintf("loaded mesh seed=%d", seed), sys, sim.Config{Duration: 20_000}, seed)
	}
	return cases
}

// TestScopedRunsMatchFullRuns runs every flow of the differential
// corpus as the target of a scoped run, on one reused engine per case,
// and holds the target's whole Result row to the full-horizon run's.
// It also requires that most scoped runs actually stop early, so the
// comparison cannot pass vacuously.
func TestScopedRunsMatchFullRuns(t *testing.T) {
	runs, stopped := 0, 0
	for _, c := range scopedCorpus(t) {
		full, err := sim.Run(c.sys, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if full.Stats.StoppedAt != 0 {
			t.Fatalf("%s: full-horizon run reports StoppedAt %d", c.label, full.Stats.StoppedAt)
		}
		eng := sim.NewEngine(c.sys)
		for f := 0; f < c.sys.NumFlows(); f++ {
			got, err := eng.Run(sim.Scoped(c.cfg, f))
			if err != nil {
				t.Fatalf("%s target %d: %v", c.label, f, err)
			}
			if want, row := rowOf(full, f), rowOf(got, f); !reflect.DeepEqual(want, row) {
				t.Fatalf("%s target %d: scoped run (stopped at %d of %d) diverged from the full run\nfull:   %+v\nscoped: %+v",
					c.label, f, got.Stats.StoppedAt, c.cfg.Duration, want, row)
			}
			runs++
			if got.Stats.StoppedAt < c.cfg.Duration {
				stopped++
			}
		}
	}
	if stopped*2 <= runs {
		t.Errorf("only %d of %d scoped runs stopped before the horizon; the comparison is close to vacuous", stopped, runs)
	}
	t.Logf("%d of %d scoped runs stopped early", stopped, runs)
}

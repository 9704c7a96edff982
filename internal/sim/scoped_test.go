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
	tiny  bool // a TestDifferentialTiny system, the busy-period table's regime
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
// diffConfigs of TestDifferentialEngines, the systems of
// TestDifferentialSaturated and the tiny systems of TestDifferentialTiny
// at both of its horizons and with late offsets — plus four loaded
// short-period meshes. The saturated and loaded sets also run with
// period-long jitter injected, with a packet cap, and with both.
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
			cases = append(cases, scopedCase{label: fmt.Sprintf("scenario %d cfg %d", i, ci), sys: sys, cfg: cfg})
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
			scopedCase{label: label, sys: sys, cfg: cfg},
			scopedCase{label: label + " jittered", sys: jsys, cfg: jittered},
			scopedCase{label: label + " capped", sys: sys, cfg: capped},
			scopedCase{label: label + " jittered capped", sys: jsys, cfg: both})
	}
	for i := 0; i < 200; i++ {
		seed := oracle.DeriveSeed(0x7147, int64(i))
		sys, err := oracle.Generate(seed, tinyGen).System()
		if err != nil {
			t.Fatalf("tiny scenario %d: %v", i, err)
		}
		offs := randomOffsets(sys, seed)
		for _, dur := range []noc.Cycles{2_000, proofHorizon(sys)} {
			cases = append(cases, scopedCase{
				label: fmt.Sprintf("tiny scenario %d duration %d", i, dur),
				sys:   sys, cfg: sim.Config{Duration: dur, Offsets: offs}, tiny: true,
			})
		}
		// Flow f first released f half-hyperperiods late: before the last
		// flow starts, a drain's key holds next releases more than a
		// period ahead, and these cases fail when the key reduces them
		// modulo the periods.
		late := make([]noc.Cycles, len(offs))
		for f := range late {
			late[f] = offs[f] + noc.Cycles(f)*sys.Hyperperiod()/2
		}
		cases = append(cases, scopedCase{
			label: fmt.Sprintf("tiny scenario %d late offsets", i),
			sys:   sys, cfg: sim.Config{Duration: 2_000, Offsets: late}, tiny: true,
		})
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
// Each case runs its targets twice through one busy-period table: first
// as the search runs them, applying the table's entries, then with the
// engine's runtime invariants checked, which also simulates every table
// hit and panics unless it reproduces its entry. It also requires that
// most scoped runs actually stop early, and that at least half of the
// tiny runs take a table hit or a fast-forwarded recurrence, so neither
// comparison passes vacuously.
func TestScopedRunsMatchFullRuns(t *testing.T) {
	runs, stopped, tinyRuns, walked := 0, 0, 0, 0
	for _, c := range scopedCorpus(t) {
		full, err := sim.Run(c.sys, sim.Checked(c.cfg))
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if full.Stats.StoppedAt != 0 {
			t.Fatalf("%s: full-horizon run reports StoppedAt %d", c.label, full.Stats.StoppedAt)
		}
		eng := sim.NewEngine(c.sys)
		table := new(sim.BusyPeriodTable)
		for pass, mode := range []func(sim.Config) sim.Config{
			func(cfg sim.Config) sim.Config { return cfg }, sim.Checked,
		} {
			for f := 0; f < c.sys.NumFlows(); f++ {
				got, err := eng.Run(mode(sim.WithTable(sim.Scoped(c.cfg, f), table)))
				if err != nil {
					t.Fatalf("%s target %d: %v", c.label, f, err)
				}
				if want, row := rowOf(full, f), rowOf(got, f); !reflect.DeepEqual(want, row) {
					t.Fatalf("%s target %d pass %d: scoped run (stopped at %d of %d, %d table hits) diverged from the full run\nfull:   %+v\nscoped: %+v",
						c.label, f, pass, got.Stats.StoppedAt, c.cfg.Duration, sim.TableHits(eng), want, row)
				}
				if pass > 0 {
					continue
				}
				runs++
				if got.Stats.StoppedAt < c.cfg.Duration {
					stopped++
				}
				if c.tiny {
					tinyRuns++
					if sim.TableHits(eng) > 0 {
						walked++
					}
				}
			}
		}
	}
	if stopped*2 <= runs {
		t.Errorf("only %d of %d scoped runs stopped before the horizon; the comparison is close to vacuous", stopped, runs)
	}
	if walked*2 < tinyRuns {
		t.Errorf("only %d of %d tiny scoped runs took a table hit or a fast-forward; the walk is barely tested", walked, tinyRuns)
	}
	t.Logf("%d of %d scoped runs stopped early; %d of %d tiny runs took a table hit or a fast-forward", stopped, runs, walked, tinyRuns)
}

// TestBusyPeriodWalkGate checks that a scoped run walks its table
// exactly when the gate holds — the hyperperiod is below the horizon,
// or the key space ∏ Tᵢ is at most 2²⁰ — and that the target rows match
// the full runs either way.
func TestBusyPeriodWalkGate(t *testing.T) {
	topo := noc.MustMesh(2, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1})
	for _, tc := range []struct {
		a, b     noc.Cycles
		duration noc.Cycles
		walk     bool
	}{
		{3 << 16, 1 << 17, 4 * 3 << 17, true}, // lcm 3·2^17 < horizon, ∏ Tᵢ = 3·2^33
		{1000, 1001, 20_000, true},            // lcm = ∏ Tᵢ = 1 001 000 ≤ 2^20
		{1500, 1501, 20_000, false},           // lcm = ∏ Tᵢ = 2 251 500
	} {
		sys := traffic.MustSystem(topo, []traffic.Flow{
			{Name: "a", Priority: 1, Period: tc.a, Deadline: tc.a, Length: 4, Src: 0, Dst: 1},
			{Name: "b", Priority: 2, Period: tc.b, Deadline: tc.b, Length: 4, Src: 0, Dst: 1},
		})
		cfg := sim.Config{Duration: tc.duration, Offsets: []noc.Cycles{0, 2}}
		full, err := sim.Run(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine(sys)
		table := new(sim.BusyPeriodTable)
		for pass := 0; pass < 2; pass++ {
			got, err := eng.Run(sim.WithTable(sim.Scoped(cfg, 1), table))
			if err != nil {
				t.Fatal(err)
			}
			if want, row := rowOf(full, 1), rowOf(got, 1); !reflect.DeepEqual(want, row) {
				t.Fatalf("periods %d, %d pass %d: scoped row %+v, full row %+v", tc.a, tc.b, pass, row, want)
			}
			if sim.Walked(eng) != tc.walk {
				t.Errorf("periods %d, %d: walked %v, want %v", tc.a, tc.b, sim.Walked(eng), tc.walk)
			}
		}
		if n := sim.TableLen(table); (n > 0) != tc.walk {
			t.Errorf("periods %d, %d: table holds %d busy periods, walk %v", tc.a, tc.b, n, tc.walk)
		}
	}
}

package core_test

import (
	"math/rand"
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// TestBoundsSafeAgainstSimulation is the flagship integration test: on
// randomised scenarios, the cycle-accurate simulator must never observe a
// latency above the IBN or XLWX bound of a schedulable flow. (SB carries
// no such guarantee — that is the MPB problem — so it is not checked.)
//
// Scenarios use random release phasings; each seed also randomises the
// platform (mesh size, buffer depth, link/routing latencies).
func TestBoundsSafeAgainstSimulation(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(1000 + trial)
		rng := rand.New(rand.NewSource(seed))
		w, h := 2+rng.Intn(3), 2+rng.Intn(3)
		topo := noc.MustMesh(w, h, noc.RouterConfig{
			BufDepth:     2 + rng.Intn(9),
			LinkLatency:  1,
			RouteLatency: noc.Cycles(rng.Intn(2)),
		})
		sys, err := workload.Synthetic(topo, workload.SynthConfig{
			NumFlows:  3 + rng.Intn(10),
			PeriodMin: 800,
			PeriodMax: 20_000,
			LenMin:    8,
			LenMax:    256,
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		sets := core.BuildSets(sys)
		ibn, err := core.NewEngineWithSets(sys, sets).Analyze(core.Options{Method: core.IBN})
		if err != nil {
			t.Fatal(err)
		}
		xlwx, err := core.NewEngineWithSets(sys, sets).Analyze(core.Options{Method: core.XLWX})
		if err != nil {
			t.Fatal(err)
		}

		// Several random phasings per scenario.
		for run := 0; run < 4; run++ {
			offsets := make([]noc.Cycles, sys.NumFlows())
			for i := range offsets {
				offsets[i] = noc.Cycles(rng.Int63n(int64(sys.Flow(i).Period)))
			}
			res, err := sim.Run(sys, sim.Config{Duration: 150_000, Offsets: offsets})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < sys.NumFlows(); i++ {
				obs := res.WorstLatency[i]
				if obs < 0 {
					continue
				}
				if obs < sys.C(i) {
					t.Errorf("seed %d run %d flow %d: observed %d below zero-load %d",
						seed, run, i, obs, sys.C(i))
				}
				if ibn.Flows[i].Status == core.Schedulable && obs > ibn.R(i) {
					t.Errorf("seed %d run %d flow %d (%s): observed %d EXCEEDS IBN bound %d",
						seed, run, i, sys.Flow(i).Name, obs, ibn.R(i))
				}
				if xlwx.Flows[i].Status == core.Schedulable && obs > xlwx.R(i) {
					t.Errorf("seed %d run %d flow %d (%s): observed %d EXCEEDS XLWX bound %d",
						seed, run, i, sys.Flow(i).Name, obs, xlwx.R(i))
				}
			}
		}
	}
}

// TestSimulatedMPBGeometry drives a purpose-built 4-flow MPB chain (two
// levels of downstream indirect interference) and checks bounds hold.
func TestSimulatedMPBGeometry(t *testing.T) {
	// Line of 8 routers; τ4 lowest priority is hit by a chain of
	// downstream blockers.
	topo := noc.MustMesh(8, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "k2", Priority: 1, Period: 150, Deadline: 150, Length: 30, Src: 6, Dst: 7},
		{Name: "k1", Priority: 2, Period: 400, Deadline: 400, Length: 80, Src: 4, Dst: 7},
		{Name: "j", Priority: 3, Period: 8000, Deadline: 8000, Length: 200, Src: 0, Dst: 6},
		{Name: "i", Priority: 4, Period: 12000, Deadline: 12000, Length: 100, Src: 1, Dst: 4},
	})
	sets := core.BuildSets(sys)
	ibn, err := core.NewEngineWithSets(sys, sets).Analyze(core.Options{Method: core.IBN})
	if err != nil {
		t.Fatal(err)
	}
	if !ibn.Schedulable {
		t.Fatalf("MPB geometry should be schedulable under IBN: %+v", ibn.Flows)
	}
	sweep, err := sim.SweepOffsets(sys, sim.Config{Duration: 30_000}, 0, 150, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sys.NumFlows(); i++ {
		if sweep.Worst[i] > ibn.R(i) {
			t.Errorf("flow %s: observed %d exceeds IBN bound %d", sys.Flow(i).Name, sweep.Worst[i], ibn.R(i))
		}
	}
	// The low-priority victim must actually suffer interference beyond C.
	if sweep.Worst[3] <= sys.C(3) {
		t.Errorf("victim saw no interference: %d <= C %d", sweep.Worst[3], sys.C(3))
	}
}

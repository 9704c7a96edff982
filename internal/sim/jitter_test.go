package sim_test

import (
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
)

// jitterSystem: a jittery high-priority interferer over a victim flow.
func jitterSystem(t *testing.T) *traffic.System {
	t.Helper()
	topo := noc.MustMesh(6, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	return traffic.MustSystem(topo, []traffic.Flow{
		{Name: "jittery", Priority: 1, Period: 500, Deadline: 400, Jitter: 100, Length: 40, Src: 0, Dst: 5},
		{Name: "victim", Priority: 2, Period: 3000, Deadline: 3000, Length: 100, Src: 1, Dst: 4},
	})
}

func TestJitterZeroLoadUnchanged(t *testing.T) {
	// A lone flow with jitter still achieves C for every packet, since
	// latency is measured from the actual release.
	topo := noc.MustMesh(4, 4, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "only", Priority: 1, Period: 1000, Deadline: 1000, Jitter: 400, Length: 32, Src: 0, Dst: 15},
	})
	res, err := sim.Run(sys, sim.Config{Duration: 50_000, InjectJitter: true, JitterSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed[0] < 40 {
		t.Fatalf("completed only %d packets", res.Completed[0])
	}
	if res.WorstLatency[0] != sys.C(0) {
		t.Errorf("worst = %d, want C = %d", res.WorstLatency[0], sys.C(0))
	}
}

func TestJitterChangesInterferencePattern(t *testing.T) {
	sys := jitterSystem(t)
	base, err := sim.Run(sys, sim.Config{Duration: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	jit, err := sim.Run(sys, sim.Config{Duration: 60_000, InjectJitter: true, JitterSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Same workload volume either way.
	if jit.Released[0] < base.Released[0]-1 || jit.Released[0] > base.Released[0] {
		t.Errorf("jitter changed release count: %d vs %d", jit.Released[0], base.Released[0])
	}
	// The victim's latency profile must differ across phasing patterns
	// for at least one seed (jitter actually does something). The worst
	// case saturates quickly, so compare the means.
	differs := jit.MeanLatency(1) != base.MeanLatency(1)
	for seed := int64(4); !differs && seed < 10; seed++ {
		alt, err := sim.Run(sys, sim.Config{Duration: 60_000, InjectJitter: true, JitterSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		differs = alt.MeanLatency(1) != base.MeanLatency(1)
	}
	if !differs {
		t.Error("jitter injection had no observable effect across seeds")
	}
}

func TestJitterDeterministicInSeed(t *testing.T) {
	sys := jitterSystem(t)
	a, err := sim.Run(sys, sim.Config{Duration: 30_000, InjectJitter: true, JitterSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(sys, sim.Config{Duration: 30_000, InjectJitter: true, JitterSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.WorstLatency {
		if a.WorstLatency[i] != b.WorstLatency[i] || a.Completed[i] != b.Completed[i] {
			t.Fatalf("jitter not deterministic: %+v vs %+v", a, b)
		}
	}
}

// TestJitteredBoundsStillSafe: with jitter injected, observed latencies
// must stay within the analyses' bounds (which account for interferer
// jitter via the J terms).
func TestJitteredBoundsStillSafe(t *testing.T) {
	sys := jitterSystem(t)
	sets := core.BuildSets(sys)
	ibn, err := core.NewEngineWithSets(sys, sets).Analyze(core.Options{Method: core.IBN})
	if err != nil {
		t.Fatal(err)
	}
	if !ibn.Schedulable {
		t.Fatalf("scenario should be schedulable: %+v", ibn.Flows)
	}
	for seed := int64(0); seed < 20; seed++ {
		res, err := sim.Run(sys, sim.Config{
			Duration:     100_000,
			InjectJitter: true,
			JitterSeed:   seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sys.NumFlows(); i++ {
			if res.WorstLatency[i] > ibn.R(i) {
				t.Errorf("seed %d flow %d: observed %d exceeds IBN bound %d",
					seed, i, res.WorstLatency[i], ibn.R(i))
			}
		}
	}
}

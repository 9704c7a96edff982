package sim_test

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
)

// TestSlowLinksContention: with linkl = 2 every transfer takes two
// cycles, so a blocked low-priority flow waits proportionally longer;
// bounds computed for the same platform must still hold.
func TestSlowLinksContention(t *testing.T) {
	topo := noc.MustMesh(5, 1, noc.RouterConfig{BufDepth: 3, LinkLatency: 2, RouteLatency: 0})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "hi", Priority: 1, Period: 1000, Deadline: 1000, Length: 30, Src: 0, Dst: 4},
		{Name: "lo", Priority: 2, Period: 4000, Deadline: 4000, Length: 20, Src: 0, Dst: 4},
	})
	ibn, err := core.Analyze(sys, core.Options{Method: core.IBN})
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := sim.SweepOffsets(sys, sim.Config{Duration: 20_000}, 0, 1000, 25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if sweep.Worst[i] > ibn.R(i) {
			t.Errorf("flow %d: observed %d exceeds IBN bound %d (linkl=2)", i, sweep.Worst[i], ibn.R(i))
		}
	}
	if sweep.Worst[1] <= sys.C(1) {
		t.Errorf("lo saw no contention: %d <= C %d", sweep.Worst[1], sys.C(1))
	}
}

// TestRoutingLatencyContention: non-zero routl under contention.
func TestRoutingLatencyContention(t *testing.T) {
	topo := noc.MustMesh(4, 4, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 2})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "a", Priority: 1, Period: 2000, Deadline: 2000, Length: 64, Src: 0, Dst: 15},
		{Name: "b", Priority: 2, Period: 5000, Deadline: 5000, Length: 64, Src: 0, Dst: 15},
		{Name: "c", Priority: 3, Period: 9000, Deadline: 9000, Length: 64, Src: 3, Dst: 12},
	})
	ibn, err := core.Analyze(sys, core.Options{Method: core.IBN})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sys, sim.Config{Duration: 60_000, Offsets: []noc.Cycles{7, 0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if res.Completed[i] == 0 {
			t.Fatalf("flow %d completed nothing", i)
		}
		if ibn.Flows[i].Status == core.Schedulable && res.WorstLatency[i] > ibn.R(i) {
			t.Errorf("flow %d: observed %d exceeds IBN bound %d (routl=2)", i, res.WorstLatency[i], ibn.R(i))
		}
	}
}

// TestYXRoutingSimulation: the simulator follows the topology's routing
// policy; flows that are disjoint under XY can collide under YX and
// vice versa.
func TestYXRoutingSimulation(t *testing.T) {
	cfg := noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0}
	flows := []traffic.Flow{
		// 0=(0,0)→5=(1,1) and 4=(0,1)→1=(1,0) on a 2x2: under XY they
		// share no mesh link; under YX they share none either — use a
		// 3x3 with crossing diagonals instead.
		{Name: "a", Priority: 1, Period: 2000, Deadline: 2000, Length: 64, Src: 0, Dst: 8},
		{Name: "b", Priority: 2, Period: 2000 - 1, Deadline: 1999, Length: 64, Src: 6, Dst: 2},
	}
	xyTopo := noc.MustMesh(3, 3, cfg)
	yxTopo, err := xyTopo.WithRouting(noc.YX)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		topo *noc.Topology
	}{{"XY", xyTopo}, {"YX", yxTopo}} {
		t.Run(tc.name, func(t *testing.T) {
			sys := traffic.MustSystem(tc.topo, flows)
			ibn, err := core.Analyze(sys, core.Options{Method: core.IBN})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(sys, sim.Config{Duration: 40_000})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if ibn.Flows[i].Status == core.Schedulable && res.WorstLatency[i] > ibn.R(i) {
					t.Errorf("%s flow %d: observed %d exceeds bound %d",
						tc.name, i, res.WorstLatency[i], ibn.R(i))
				}
			}
			// Zero-load latencies match Eq. 1 under both policies.
			solo, err := sim.Run(sys, sim.Config{
				Duration: 10_000, Offsets: []noc.Cycles{0, 9_999}, MaxPacketsPerFlow: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if solo.WorstLatency[0] != sys.C(0) {
				t.Errorf("%s: solo latency %d != C %d", tc.name, solo.WorstLatency[0], sys.C(0))
			}
		})
	}
}

// TestChainScenarioSimulation: the two-level MPB chain of
// internal/core's chain_test, adversarially phased, stays within IBN's
// 172-cycle bound for τi.
func TestChainScenarioSimulation(t *testing.T) {
	topo := noc.MustMesh(10, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "k2", Priority: 1, Period: 100, Deadline: 100, Length: 20, Src: 8, Dst: 9},
		{Name: "k1", Priority: 2, Period: 500, Deadline: 500, Length: 40, Src: 6, Dst: 9},
		{Name: "j", Priority: 3, Period: 10000, Deadline: 10000, Length: 100, Src: 0, Dst: 8},
		{Name: "i", Priority: 4, Period: 20000, Deadline: 20000, Length: 50, Src: 1, Dst: 5},
	})
	res, err := sim.SearchWorstCase(sys, sim.SearchConfig{
		Base:   sim.Config{Duration: 40_000},
		Target: 3,
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Worst > 172 {
		t.Errorf("observed %d exceeds IBN bound 172", res.Worst)
	}
	if res.Worst <= sys.C(3) {
		t.Errorf("no interference observed: %d <= C %d", res.Worst, sys.C(3))
	}
}

// TestRunRejectsReleaseHorizonOverflow: release instants advance by
// T_i from below Duration, so a horizon with Duration + T_i + J_i + C_i
// past int64 would wrap a release negative. Both engines must reject it
// by name instead of reporting a wrapped latency or looping on the
// wrapped release.
func TestRunRejectsReleaseHorizonOverflow(t *testing.T) {
	topo := noc.MustMesh(2, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	long := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "long", Priority: 1, Period: 1 << 62, Deadline: 1 << 62, Length: 4, Src: 0, Dst: 1},
	})
	late := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "late", Priority: 1, Period: 100, Deadline: 100, Length: 4, Src: 0, Dst: 1},
	})
	cases := []struct {
		name string
		sys  *traffic.System
		cfg  sim.Config
	}{
		{"capped", long, sim.Config{Duration: math.MaxInt64, MaxPacketsPerFlow: 10}},
		{"offset", late, sim.Config{Duration: math.MaxInt64, Offsets: []noc.Cycles{math.MaxInt64 - 5}}},
	}
	engines := map[string]func(*traffic.System, sim.Config) (*sim.Result, error){
		"engine": sim.Run, "reference": sim.RunReference,
	}
	for _, c := range cases {
		for ename, run := range engines {
			res, err := run(c.sys, c.cfg)
			if err == nil {
				t.Errorf("%s/%s: accepted, worst latency %d", c.name, ename, res.WorstLatency[0])
				continue
			}
			if name := c.sys.Flow(0).Name; !strings.Contains(err.Error(), strconv.Quote(name)) {
				t.Errorf("%s/%s: error %q does not name flow %q", c.name, ename, err, name)
			}
		}
	}

	// Just inside the limit, the single release in the horizon completes
	// at its zero-load latency.
	if c := long.C(0); c != 6 {
		t.Fatalf("C = %d, want 6", c)
	}
	for ename, run := range engines {
		res, err := run(long, sim.Config{Duration: math.MaxInt64 - (1 << 62) - 7, MaxPacketsPerFlow: 10})
		if err != nil {
			t.Fatalf("%s: %v", ename, err)
		}
		if res.Completed[0] != 1 || res.WorstLatency[0] != 6 {
			t.Errorf("%s: %d packets, worst latency %d; want 1 packet at 6", ename, res.Completed[0], res.WorstLatency[0])
		}
	}
}

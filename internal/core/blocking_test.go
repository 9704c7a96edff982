package core_test

import (
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
)

// TestBlockingTermRegression reproduces the soundness gap our validation
// found on multi-cycle links: with linkl = 2, atomic flit transfers let
// a lower-priority flit block even the top-priority flow for up to
// linkl−1 cycles — the simulator observed 71 cycles against a pre-fix
// bound of C = 70. The blocking term must cover it.
func TestBlockingTermRegression(t *testing.T) {
	topo := noc.MustMesh(5, 1, noc.RouterConfig{BufDepth: 3, LinkLatency: 2, RouteLatency: 0})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "hi", Priority: 1, Period: 1000, Deadline: 1000, Length: 30, Src: 0, Dst: 4},
		{Name: "lo", Priority: 2, Period: 4000, Deadline: 4000, Length: 20, Src: 0, Dst: 4},
	})
	ibn, err := core.Analyze(sys, core.Options{Method: core.IBN})
	if err != nil {
		t.Fatal(err)
	}
	// hi shares all 6 route links with lo: B = (2−1)·6·1 = 6 on top of
	// C = 2·6 + 2·29 = 70.
	if got := ibn.R(0); got != sys.C(0)+6 {
		t.Errorf("R(hi) = %d, want C+6 = %d", got, sys.C(0)+6)
	}
	// The adversarially phased simulation must stay within the bound.
	sweep, err := sim.SweepOffsets(sys, sim.Config{Duration: 20_000}, 0, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Worst[0] > ibn.R(0) {
		t.Errorf("observed %d exceeds blocked bound %d", sweep.Worst[0], ibn.R(0))
	}
	if sweep.Worst[0] <= sys.C(0) {
		t.Skip("phasing did not trigger the partial-transfer wait on this run")
	}
}

// TestBlockingZeroOnSingleCycleLinks: the paper's configuration is
// untouched by the blocking term.
func TestBlockingZeroOnSingleCycleLinks(t *testing.T) {
	topo := noc.MustMesh(5, 1, noc.RouterConfig{BufDepth: 3, LinkLatency: 1, RouteLatency: 0})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "hi", Priority: 1, Period: 1000, Deadline: 1000, Length: 30, Src: 0, Dst: 4},
		{Name: "lo", Priority: 2, Period: 4000, Deadline: 4000, Length: 20, Src: 0, Dst: 4},
	})
	ibn, err := core.Analyze(sys, core.Options{Method: core.IBN})
	if err != nil {
		t.Fatal(err)
	}
	if ibn.R(0) != sys.C(0) {
		t.Errorf("top-priority bound %d != C %d at linkl=1", ibn.R(0), sys.C(0))
	}
}

// TestBlockingZeroWithoutLowerPriorityNeighbours: a lowest-priority flow
// never waits for lower-priority transfers.
func TestBlockingZeroWithoutLowerPriorityNeighbours(t *testing.T) {
	topo := noc.MustMesh(5, 1, noc.RouterConfig{BufDepth: 3, LinkLatency: 4, RouteLatency: 0})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "only", Priority: 1, Period: 10_000, Deadline: 10_000, Length: 30, Src: 0, Dst: 4},
	})
	ibn, err := core.Analyze(sys, core.Options{Method: core.IBN})
	if err != nil {
		t.Fatal(err)
	}
	if ibn.R(0) != sys.C(0) {
		t.Errorf("lone flow bound %d != C %d", ibn.R(0), sys.C(0))
	}
}

// TestBlockingExplainIdentity: the breakdown exposes the blocking term
// and preserves the decomposition identity on multi-cycle links.
func TestBlockingExplainIdentity(t *testing.T) {
	topo := noc.MustMesh(5, 1, noc.RouterConfig{BufDepth: 3, LinkLatency: 2, RouteLatency: 0})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "hi", Priority: 1, Period: 1000, Deadline: 1000, Length: 30, Src: 0, Dst: 4},
		{Name: "lo", Priority: 2, Period: 4000, Deadline: 4000, Length: 20, Src: 0, Dst: 4},
	})
	sets := core.BuildSets(sys)
	b, err := core.NewEngineWithSets(sys, sets).Explain(core.Options{Method: core.IBN}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Blocking != 6 {
		t.Errorf("Blocking = %d, want 6", b.Blocking)
	}
	sum := b.Blocking
	for _, tm := range b.Terms {
		sum += tm.Total
	}
	if b.C+sum != b.R {
		t.Errorf("identity broken: C %d + Σ %d != R %d", b.C, sum, b.R)
	}
}

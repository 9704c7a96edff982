package core_test

import (
	"math"
	"strings"
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
)

// twoFlowSystem puts a heavy high-priority flow against a light
// low-priority one on a shared path, with a tunable low-priority
// deadline.
func twoFlowSystem(t *testing.T, loPeriod, loDeadline noc.Cycles) *traffic.System {
	t.Helper()
	topo := noc.MustMesh(4, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	return traffic.MustSystem(topo, []traffic.Flow{
		{Name: "hi", Priority: 1, Period: 100, Deadline: 100, Length: 50, Src: 0, Dst: 3},
		{Name: "lo", Priority: 2, Period: loPeriod, Deadline: loDeadline, Length: 10, Src: 0, Dst: 3},
	})
}

func TestDeadlineMissStatus(t *testing.T) {
	// hi: C = 5 links... route len 5? 4x1 line 0→3: inj+3mesh+ej = 5
	// links, C = 5 + 49 = 54 > its period share; lo suffers repeated hits.
	sys := twoFlowSystem(t, 200, 60) // lo deadline 60 < one hit of hi (54+)
	res, err := core.Analyze(sys, core.Options{Method: core.XLWX})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[0].Status != core.Schedulable {
		t.Fatalf("hi should be schedulable: %+v", res.Flows[0])
	}
	if res.Flows[1].Status != core.DeadlineMiss {
		t.Fatalf("lo should miss its deadline: %+v", res.Flows[1])
	}
	if res.Schedulable {
		t.Error("set must be unschedulable")
	}
	if res.Flows[1].R <= sys.Flow(1).Deadline {
		t.Error("DeadlineMiss must report the first bound past the deadline")
	}
}

// A flow with no higher-priority interference converges at r = C on the
// first iteration; if C already exceeds the deadline, that convergence
// must still be a DeadlineMiss. Found by the verification oracle: its
// shrinker halved a solo flow's period until C > D = T and every
// analysis still reported the flow schedulable.
func TestDeadlineMissWithoutInterference(t *testing.T) {
	topo := noc.MustMesh(2, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "solo", Priority: 1, Period: 3, Deadline: 3, Length: 60, Src: 0, Dst: 1},
	})
	for _, m := range core.Methods() {
		res, err := core.Analyze(sys, core.Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if res.Flows[0].Status != core.DeadlineMiss {
			t.Errorf("%s: solo flow with C=%d > D=3 reported %v", m, res.Flows[0].R, res.Flows[0].Status)
		}
	}
}

func TestDependencyFailedStatus(t *testing.T) {
	// Make the HIGH priority flow unschedulable (C > D is impossible
	// with D<=T validation, so use an intermediate flow instead):
	// p1 hammers p2 until p2 misses; p3 depends on p2's bound.
	// p1: C = 5 + 79 = 84 over T = 100; p2: C = 14, one hit of p1 gives
	// R = 98 > D = 90 → DeadlineMiss; p3's bound needs R(p2) → fails.
	topo := noc.MustMesh(4, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "p1", Priority: 1, Period: 100, Deadline: 100, Length: 80, Src: 0, Dst: 3},
		{Name: "p2", Priority: 2, Period: 300, Deadline: 90, Length: 10, Src: 0, Dst: 3},
		{Name: "p3", Priority: 3, Period: 5000, Deadline: 5000, Length: 10, Src: 0, Dst: 3},
	})
	res, err := core.Analyze(sys, core.Options{Method: core.XLWX})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[1].Status != core.DeadlineMiss {
		t.Fatalf("p2 should miss: %+v", res.Flows[1])
	}
	if res.Flows[2].Status != core.DependencyFailed {
		t.Fatalf("p3 should be DependencyFailed: %+v", res.Flows[2])
	}
}

func TestDivergedStatus(t *testing.T) {
	// A 64%-utilised interferer makes lo's fixed point climb through
	// several hit counts (204 → 396 → 460 → … → 588); capping the
	// iterations at 1 forces Diverged.
	topo := noc.MustMesh(4, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "hi", Priority: 1, Period: 100, Deadline: 100, Length: 60, Src: 0, Dst: 3},
		{Name: "lo", Priority: 2, Period: 100_000, Deadline: 100_000, Length: 200, Src: 0, Dst: 3},
	})
	res, err := core.Analyze(sys, core.Options{Method: core.SB, MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[1].Status != core.Diverged {
		t.Fatalf("expected Diverged with MaxIterations=1, got %+v", res.Flows[1])
	}
	// With the default cap it converges.
	res, err = core.Analyze(sys, core.Options{Method: core.SB})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[1].Status != core.Schedulable {
		t.Fatalf("expected convergence, got %+v", res.Flows[1])
	}
}

// overflowSystem is a 2×1 mesh where τj's release jitter sits five
// cycles under MaxInt64. τi can wait behind a whole τj packet, so
// R_i >= C_i + C_j = 114 > D_i = 50; an unchecked r + J_j wraps negative,
// counts zero hits and reports R_i = C_i = 12 as schedulable.
func overflowSystem(t *testing.T) *traffic.System {
	t.Helper()
	topo := noc.MustMesh(2, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	return traffic.MustSystem(topo, []traffic.Flow{
		{Name: "j", Priority: 1, Period: math.MaxInt64, Deadline: math.MaxInt64, Jitter: math.MaxInt64 - 5, Length: 100, Src: 0, Dst: 1},
		{Name: "i", Priority: 2, Period: math.MaxInt64, Deadline: 50, Length: 10, Src: 0, Dst: 1},
	})
}

func TestOverflowingWindowNotSchedulable(t *testing.T) {
	sys := overflowSystem(t)
	for _, m := range core.Methods() {
		res, err := core.Analyze(sys, core.Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Flows[0]; got.Status != core.Schedulable || got.R != 102 {
			t.Errorf("%s: τj = %+v, want schedulable at C_j = 102", m, got)
		}
		if got := res.Flows[1]; got.Status != core.Diverged || res.Schedulable {
			t.Errorf("%s: τi = %+v (set schedulable %v), want diverged", m, got, res.Schedulable)
		}
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	sys := twoFlowSystem(t, 1000, 1000)
	if _, err := core.Analyze(sys, core.Options{Method: core.Method(42)}); err == nil {
		t.Error("unknown method must be rejected")
	}
}

func TestNoInterferenceEqualsZeroLoad(t *testing.T) {
	// Two flows on disjoint routes: both bounds equal C under every
	// analysis.
	topo := noc.MustMesh(4, 4, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "a", Priority: 1, Period: 1000, Deadline: 1000, Length: 16, Src: 0, Dst: 1},
		{Name: "b", Priority: 2, Period: 1000, Deadline: 1000, Length: 16, Src: 14, Dst: 15},
	})
	for _, m := range []core.Method{core.SB, core.XLWX, core.IBN} {
		res, err := core.Analyze(sys, core.Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if res.R(i) != sys.C(i) {
				t.Errorf("%v: R(%d) = %d, want C = %d", m, i, res.R(i), sys.C(i))
			}
		}
	}
}

// TestBackToBackHit reproduces the classic indirect-interference jitter
// scenario that distinguishes SB-with-JI from a naive analysis: τj
// delayed by τk can hit τi twice in quick succession.
func TestBackToBackHit(t *testing.T) {
	// τk (P1) shares only with τj (P2); τj shares with τi (P3).
	sys := lineSystem(t,
		[3]int{1, 0, 2}, // τk upstream segment of τj
		[3]int{2, 0, 9}, // τj full line
		[3]int{3, 4, 7}, // τi mid segment
	)
	// Recreate with loads that make the interference jitter bite: τk at
	// 86% utilisation pushes R_j to 585, so JI_j = 515 and τi takes two
	// back-to-back hits of τj within one T_j = 600 window.
	topo := sys.Topology()
	flows := make([]traffic.Flow, 3)
	copy(flows, sys.Flows())
	flows[0].Period, flows[0].Deadline, flows[0].Length = 120, 120, 100
	flows[1].Period, flows[1].Deadline, flows[1].Length = 600, 600, 60
	flows[2].Period, flows[2].Deadline, flows[2].Length = 5000, 5000, 30
	sys = traffic.MustSystem(topo, flows)

	sets := core.BuildSets(sys)
	sb, err := core.NewEngineWithSets(sys, sets).Analyze(core.Options{Method: core.SB})
	if err != nil {
		t.Fatal(err)
	}
	// τj suffers interference from τk, so its interference jitter
	// R_j - C_j must be reflected in τi's hit count: R_i must exceed
	// C_i + 1·C_j (a single clean hit).
	if sb.R(2) <= sys.C(2)+sys.C(1) {
		t.Errorf("back-to-back hits not captured: R = %d", sb.R(2))
	}
}

func TestMethodAndStatusStrings(t *testing.T) {
	for _, m := range []core.Method{core.SB, core.XLWX, core.IBN, core.Method(9)} {
		if m.String() == "" {
			t.Errorf("Method(%d).String() empty", int(m))
		}
	}
	for _, s := range []core.FlowStatus{core.Schedulable, core.DeadlineMiss, core.DependencyFailed, core.Diverged, core.FlowStatus(9)} {
		if s.String() == "" {
			t.Errorf("FlowStatus(%d).String() empty", int(s))
		}
	}
	if !strings.Contains(core.SB.String(), "SB") {
		t.Error("SB stringer wrong")
	}
}

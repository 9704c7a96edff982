package core_test

import (
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
)

// chainSystem builds a two-level MPB chain on a 10-router line with
// buf=2, linkl=1, routl=0:
//
//	τk2 (P1): 8→9, L=20,  T=100    C = 22   (hits τk1 downstream)
//	τk1 (P2): 6→9, L=40,  T=500    C = 44   (hits τj downstream)
//	τj  (P3): 0→8, L=100, T=10000  C = 109
//	τi  (P4): 1→5, L=50,  T=20000  C = 55
//
// Geometry: cd(i,j) = 4 mid-line links; cd(j,k1) = 2 links strictly
// downstream of cd(i,j); cd(k1,k2) = 2 links strictly downstream of
// cd(k1,j); k1 and k2 never touch τi, and k2 never touches τj — so τi
// suffers MPB through τj, whose blocker τk1 itself suffers MPB through
// τk2: the I^down recursion goes two levels deep.
func chainSystem(t *testing.T) *traffic.System {
	t.Helper()
	topo := noc.MustMesh(10, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	return traffic.MustSystem(topo, []traffic.Flow{
		{Name: "k2", Priority: 1, Period: 100, Deadline: 100, Length: 20, Src: 8, Dst: 9},
		{Name: "k1", Priority: 2, Period: 500, Deadline: 500, Length: 40, Src: 6, Dst: 9},
		{Name: "j", Priority: 3, Period: 10000, Deadline: 10000, Length: 100, Src: 0, Dst: 8},
		{Name: "i", Priority: 4, Period: 20000, Deadline: 20000, Length: 50, Src: 1, Dst: 5},
	})
}

// TestChainGeometry pins the interference structure the hand computation
// below relies on.
func TestChainGeometry(t *testing.T) {
	sys := chainSystem(t)
	if got := []noc.Cycles{sys.C(0), sys.C(1), sys.C(2), sys.C(3)}; got[0] != 22 || got[1] != 44 || got[2] != 109 || got[3] != 55 {
		t.Fatalf("C = %v, want [22 44 109 55]", got)
	}
	sets := core.BuildSets(sys)
	if d := sets.Direct(3); len(d) != 1 || d[0] != 2 {
		t.Fatalf("S^D(i) = %v, want [j]", d)
	}
	if in := sets.Indirect(3); len(in) != 1 || in[0] != 1 {
		t.Fatalf("S^I(i) = %v, want [k1]", in)
	}
	if in := sets.Indirect(2); len(in) != 1 || in[0] != 0 {
		t.Fatalf("S^I(j) = %v, want [k2]", in)
	}
	if d := sets.Downstream(3, 2); len(d) != 1 || d[0] != 1 {
		t.Fatalf("Downstream(i,j) = %v, want [k1]", d)
	}
	if d := sets.Downstream(2, 1); len(d) != 1 || d[0] != 0 {
		t.Fatalf("Downstream(j,k1) = %v, want [k2]", d)
	}
	if got := len(sets.CD(3, 2)); got != 4 {
		t.Fatalf("|cd(i,j)| = %d, want 4", got)
	}
	if got := len(sets.CD(2, 1)); got != 2 {
		t.Fatalf("|cd(j,k1)| = %d, want 2", got)
	}
	// bi values used below: bi(i,j) = 2·1·4 = 8, bi(j,k1) = 2·1·2 = 4.
	if bi := sets.BufferedInterference(3, 2, 0); bi != 8 {
		t.Fatalf("bi(i,j) = %d, want 8", bi)
	}
	if bi := sets.BufferedInterference(2, 1, 0); bi != 4 {
		t.Fatalf("bi(j,k1) = %d, want 4", bi)
	}
}

// TestChainHandComputed pins the full hand computation of the chain for
// all four analyses:
//
//	R(k2) = 22 everywhere; R(k1) = 44 + 1·22 = 66 everywhere.
//
//	XLWX: I^down(k1,j) = 1·(22+0) = 22          → R(j) = 109 + (44+22) = 175
//	      I^down(j,i)  = 1·(44+22) = 66          → R(i) = 55 + (109+66) = 230
//	IBN:  I^down(k1,j) = 1·min(4, 22) = 4        → R(j) = 109 + (44+4) = 157
//	      I^down(j,i)  = 1·min(8, 44+4) = 8      → R(i) = 55 + (109+8) = 172
//	SB:   R(j) = 109 + 44 = 153 (JI(k1)=22 adds no hit)
//	      R(i) = 55 + 109 = 164 (JI(j)=44 adds no hit)
//	SLA (buf=2): per-hit saving (buf−1)·linkl·|cd| capped by C−L:
//	      k2 on k1: min(1·2, 2)=2; k1 on j: min(1·2, 4)=2;
//	      j on i: min(1·4, 9)=4.
//	      R(k1) = 44+20 = 64; R(j) = 109+42 = 151; R(i) = 55+105 = 160.
func TestChainHandComputed(t *testing.T) {
	sys := chainSystem(t)
	sets := core.BuildSets(sys)
	want := map[core.Method][4]noc.Cycles{
		core.XLWX: {22, 66, 175, 230},
		core.IBN:  {22, 66, 157, 172},
		core.SB:   {22, 66, 153, 164},
		core.SLA:  {22, 64, 151, 160},
	}
	for m, exp := range want {
		res, err := core.NewEngineWithSets(sys, sets).Analyze(core.Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Schedulable {
			t.Fatalf("%v: chain should be schedulable: %+v", m, res.Flows)
		}
		for i, w := range exp {
			if got := res.R(i); got != w {
				t.Errorf("%v: R(%s) = %d, want %d", m, sys.Flow(i).Name, got, w)
			}
		}
	}
}

// TestChainExplainRecursion checks the decomposition exposes the
// two-level recursion: τi's single τj-hit carries I_down = 8 under IBN
// and 66 under XLWX.
func TestChainExplainRecursion(t *testing.T) {
	sys := chainSystem(t)
	sets := core.BuildSets(sys)
	ibn, err := core.NewEngineWithSets(sys, sets).Explain(core.Options{Method: core.IBN}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ibn.Terms) != 1 || ibn.Terms[0].IDown != 8 || ibn.Terms[0].Hits != 1 {
		t.Errorf("IBN term: %+v", ibn.Terms)
	}
	xlwx, err := core.NewEngineWithSets(sys, sets).Explain(core.Options{Method: core.XLWX}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(xlwx.Terms) != 1 || xlwx.Terms[0].IDown != 66 {
		t.Errorf("XLWX term: %+v", xlwx.Terms)
	}
}

package core_test

import (
	"strings"
	"testing"
	"testing/quick"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// TestExplainDidactic pins the decomposition of τ3's bound on the
// Section V example, for all three analyses.
func TestExplainDidactic(t *testing.T) {
	sys := workload.Didactic(2)
	sets := core.BuildSets(sys)

	sb, err := core.NewEngineWithSets(sys, sets).Explain(core.Options{Method: core.SB}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sb.R != 336 || len(sb.Terms) != 1 {
		t.Fatalf("SB breakdown: %+v", sb)
	}
	if sb.Terms[0].Total != 204 || sb.Terms[0].Hits != 1 || sb.Terms[0].IDown != 0 {
		t.Errorf("SB term: %+v", sb.Terms[0])
	}
	// SB applies the interference jitter JI_2 = 124 (τ2 suffers from τ1).
	if sb.Terms[0].Jitter != 124 {
		t.Errorf("SB jitter = %d, want 124", sb.Terms[0].Jitter)
	}

	xlwx, err := core.NewEngineWithSets(sys, sets).Explain(core.Options{Method: core.XLWX}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if xlwx.R != 460 || xlwx.Terms[0].IDown != 124 || xlwx.Terms[0].Total != 328 {
		t.Errorf("XLWX breakdown: %+v", xlwx.Terms[0])
	}

	ibn, err := core.NewEngineWithSets(sys, sets).Explain(core.Options{Method: core.IBN}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tm := ibn.Terms[0]
	if ibn.R != 348 || tm.IDown != 12 || tm.BufferedInterference != 6 {
		t.Errorf("IBN breakdown: %+v", tm)
	}
	if tm.UsedFallback {
		t.Error("IBN must not fall back here (no upstream interference)")
	}
	if len(tm.Downstream) != 1 || tm.Downstream[0] != 0 || tm.ContentionDomain != 3 {
		t.Errorf("IBN sets: %+v", tm)
	}
	if s := ibn.String(); !strings.Contains(s, "bi cap 6") || !strings.Contains(s, "R = 348") {
		t.Errorf("IBN rendering:\n%s", s)
	}
}

// TestExplainIdentity: R = C + Σ term totals for every schedulable flow,
// across analyses and random systems.
func TestExplainIdentity(t *testing.T) {
	prop := func(seed int64) bool {
		sys := randomSystem(t, seed, 25)
		sets := core.BuildSets(sys)
		for _, m := range []core.Method{core.SB, core.XLWX, core.IBN} {
			res := analyze(t, sys, sets, core.Options{Method: m})
			for i := 0; i < sys.NumFlows(); i++ {
				if res.Flows[i].Status != core.Schedulable {
					continue
				}
				b, err := core.NewEngineWithSets(sys, sets).Explain(core.Options{Method: m}, i)
				if err != nil {
					t.Fatal(err)
				}
				if b.R != res.R(i) {
					t.Logf("seed %d %v flow %d: Explain R %d != Analyze R %d", seed, m, i, b.R, res.R(i))
					return false
				}
				sum := b.Blocking
				for _, tm := range b.Terms {
					sum += tm.Total
				}
				if b.C+sum != b.R {
					t.Logf("seed %d %v flow %d: C %d + Σ %d != R %d", seed, m, i, b.C, sum, b.R)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestExplainErrors(t *testing.T) {
	sys := workload.Didactic(2)
	sets := core.BuildSets(sys)
	if _, err := core.NewEngineWithSets(sys, sets).Explain(core.Options{Method: core.IBN}, 9); err == nil {
		t.Error("out-of-range flow must fail")
	}
	if _, err := core.NewEngineWithSets(sys, sets).Explain(core.Options{Method: core.Method(9)}, 0); err == nil {
		t.Error("unknown method must fail")
	}
}

// TestExplainDependencyFailed: breakdown of a flow whose dependency
// failed reports the status and no terms.
func TestExplainDependencyFailed(t *testing.T) {
	topo := noc.MustMesh(4, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "p1", Priority: 1, Period: 100, Deadline: 100, Length: 80, Src: 0, Dst: 3},
		{Name: "p2", Priority: 2, Period: 300, Deadline: 90, Length: 10, Src: 0, Dst: 3},
		{Name: "p3", Priority: 3, Period: 5000, Deadline: 5000, Length: 10, Src: 0, Dst: 3},
	})
	sets := core.BuildSets(sys)
	b, err := core.NewEngineWithSets(sys, sets).Explain(core.Options{Method: core.XLWX}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Status != core.DependencyFailed || len(b.Terms) != 0 {
		t.Errorf("breakdown: %+v", b)
	}
	if !strings.Contains(b.String(), "dependency-failed") {
		t.Errorf("rendering: %s", b.String())
	}
}

package workload

import (
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
)

// TestAVGoldenMapping pins one concrete AV mapping end to end: the
// identity placement of the 38 tasks onto a 7x6 mesh (task t on node t),
// its flow census and the schedulability verdicts of the analyses. This
// guards the benchmark definition against accidental edits — any change
// to the task graph, the periods or the clock scale shows up here.
func TestAVGoldenMapping(t *testing.T) {
	topo := noc.MustMesh(7, 6, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	mapping := make([]noc.NodeID, NumAVTasks())
	for i := range mapping {
		mapping[i] = noc.NodeID(i)
	}
	sys, err := BuildAV(topo, mapping)
	if err != nil {
		t.Fatal(err)
	}
	// The identity placement co-locates no tasks: all 39 flows network.
	if sys.NumFlows() != 39 {
		t.Fatalf("flows = %d, want 39", sys.NumFlows())
	}
	// Spot-pin the extreme flows of the graph.
	var camF, steer *int
	for i := 0; i < sys.NumFlows(); i++ {
		switch sys.Flow(i).Name {
		case "camF":
			v := i
			camF = &v
		case "steer":
			v := i
			steer = &v
		}
	}
	if camF == nil || steer == nil {
		t.Fatal("expected flows missing")
	}
	if f := sys.Flow(*camF); f.Length != 4096 || f.Period != 33*MSCycles {
		t.Errorf("camF changed: %+v", f)
	}
	if f := sys.Flow(*steer); f.Length != 32 || f.Deadline != f.Period/2 {
		t.Errorf("steer changed: %+v", f)
	}
	// RM priorities: the 5ms control flows occupy the top levels.
	top := sys.ByPriority()[0]
	if p := sys.Flow(top).Period; p != 5*MSCycles {
		t.Errorf("top-priority flow has period %d, want %d", p, 5*MSCycles)
	}
	// Analysis verdicts on this placement (golden values).
	sets := core.BuildSets(sys)
	verdicts := map[core.Method]bool{}
	for _, m := range []core.Method{core.SB, core.XLWX, core.IBN} {
		res, err := core.NewEngineWithSets(sys, sets).Analyze(core.Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		verdicts[m] = res.Schedulable
	}
	// The identity placement routes the heavy vision pipeline across
	// many shared column links; IBN certifies it, XLWX does not — a
	// concrete instance of Figure 5's gap.
	if !verdicts[core.IBN] {
		t.Error("IBN should certify the identity placement")
	}
	if verdicts[core.XLWX] {
		t.Error("XLWX unexpectedly certifies the identity placement (workload drifted?)")
	}
	if !verdicts[core.SB] {
		t.Error("SB (optimistic) should certify whatever IBN certifies")
	}
}

package core_test

import (
	"testing"
	"testing/quick"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/sim"
	"wormnoc/internal/workload"
)

// TestSLADidacticValues pins the stage-level bounds on the Section V
// example: with 2 shared links between τ2 and τ1 the per-hit saving on
// τ2 is capped at C₁ − L₁ = 2, and on τ3 the per-hit saving over the
// 3-link contention domain is capped at C₂ − L₂ = 6.
func TestSLADidacticValues(t *testing.T) {
	cases := []struct {
		buf  int
		want []noc.Cycles // R(τ1), R(τ2), R(τ3)
	}{
		// buf=1: zero saving → identical to SB (62, 328, 336).
		{1, []noc.Cycles{62, 328, 336}},
		// buf=2: saving 2 on τ2's hits (cap), 3 on τ3's hit.
		// R2 = 204 + 2·60 = 324; R3 = 132 + (204−3) = 333.
		{2, []noc.Cycles{62, 324, 333}},
		// buf=10: savings capped at 2 and 6.
		// R2 = 324; R3 = 132 + 198 = 330.
		{10, []noc.Cycles{62, 324, 330}},
	}
	for _, tc := range cases {
		res, err := core.Analyze(workload.Didactic(tc.buf), core.Options{Method: core.SLA})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range tc.want {
			if got := res.R(i); got != want {
				t.Errorf("buf=%d: R(τ%d) = %d, want %d", tc.buf, i+1, got, want)
			}
		}
	}
}

// TestSLAEqualsSBAtMinimalBuffers: property 1 from the paper's review.
func TestSLAEqualsSBAtMinimalBuffers(t *testing.T) {
	prop := func(seed int64) bool {
		sys := randomSystem(t, seed, 30)
		sets := core.BuildSets(sys)
		sb := analyze(t, sys, sets, core.Options{Method: core.SB})
		sla := analyze(t, sys, sets, core.Options{Method: core.SLA, BufDepth: 1})
		for i := 0; i < sys.NumFlows(); i++ {
			if sb.Flows[i] != sla.Flows[i] {
				t.Logf("seed %d flow %d: SB %+v vs SLA(b=1) %+v", seed, i, sb.Flows[i], sla.Flows[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSLATighterWithLargerBuffers: property 2 — bounds are monotone
// non-increasing in buffer depth and never exceed SB's.
func TestSLATighterWithLargerBuffers(t *testing.T) {
	prop := func(seed int64) bool {
		sys := randomSystem(t, seed, 30)
		sets := core.BuildSets(sys)
		sb := analyze(t, sys, sets, core.Options{Method: core.SB})
		prev := make([]noc.Cycles, sys.NumFlows())
		for i := range prev {
			prev[i] = -1
		}
		for _, b := range []int{1, 2, 4, 16, 64} {
			sla := analyze(t, sys, sets, core.Options{Method: core.SLA, BufDepth: b})
			for i := 0; i < sys.NumFlows(); i++ {
				if sla.Flows[i].Status != core.Schedulable {
					continue
				}
				if sb.Flows[i].Status == core.Schedulable && sla.R(i) > sb.R(i) {
					t.Logf("seed %d flow %d: SLA(b=%d) %d > SB %d", seed, i, b, sla.R(i), sb.R(i))
					return false
				}
				if prev[i] >= 0 && sla.R(i) > prev[i] {
					t.Logf("seed %d flow %d: SLA not monotone at b=%d", seed, i, b)
					return false
				}
				prev[i] = sla.R(i)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSLAUnsafeUnderMPB: property 3 — the simulator observes latencies
// beyond the SLA bounds in the didactic MPB scenario, at both buffer
// depths (350 > 330 at b=10, 334 > 333 at b=2).
func TestSLAUnsafeUnderMPB(t *testing.T) {
	if testing.Short() {
		t.Skip("offset sweep is slow in -short mode")
	}
	for _, buf := range []int{10, 2} {
		sys := workload.Didactic(buf)
		sla, err := core.Analyze(sys, core.Options{Method: core.SLA})
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := sim.SweepOffsets(sys, sim.Config{Duration: 20_000}, 0, 200, 1)
		if err != nil {
			t.Fatal(err)
		}
		if sweep.Worst[2] <= sla.R(2) {
			t.Errorf("buf=%d: observed %d does not exceed SLA bound %d; MPB unsafety not demonstrated",
				buf, sweep.Worst[2], sla.R(2))
		}
	}
}

// TestSLAExplain: the breakdown reports the refined per-hit cost.
func TestSLAExplain(t *testing.T) {
	sys := workload.Didactic(10)
	sets := core.BuildSets(sys)
	b, err := core.NewEngineWithSets(sys, sets).Explain(core.Options{Method: core.SLA}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.R != 330 || len(b.Terms) != 1 || b.Terms[0].PerHit != 198 {
		t.Errorf("SLA breakdown: R=%d terms=%+v", b.R, b.Terms)
	}
}

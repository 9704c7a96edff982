package core_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/oracle"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// allOptions is the configuration matrix every incremental-vs-scratch
// comparison runs under: all four methods, plus an IBN variant with a
// pinned buffer override (insensitive to platform buf-depth deltas).
var allOptions = []core.Options{
	{Method: core.SB},
	{Method: core.SLA},
	{Method: core.XLWX},
	{Method: core.IBN},
	{Method: core.IBN, BufDepth: 4},
}

// requireSameResult fails the test when the two results are not
// bit-identical (per-flow R and status, and the aggregate flag).
func requireSameResult(t *testing.T, tag string, got, want *core.Result) bool {
	t.Helper()
	if got.Schedulable != want.Schedulable || len(got.Flows) != len(want.Flows) {
		t.Errorf("%s: schedulable=%v/%d flows, want %v/%d flows",
			tag, got.Schedulable, len(got.Flows), want.Schedulable, len(want.Flows))
		return false
	}
	for i := range got.Flows {
		if got.Flows[i] != want.Flows[i] {
			t.Errorf("%s: flow %d: got {R=%d %v}, want {R=%d %v}",
				tag, i, got.Flows[i].R, got.Flows[i].Status, want.Flows[i].R, want.Flows[i].Status)
			return false
		}
	}
	return true
}

// checkStep compares the incremental engine's result against a fresh
// from-scratch analysis of sys for every configuration of the matrix.
func checkStep(t *testing.T, tag string, inc *core.Incremental, sys *traffic.System) bool {
	t.Helper()
	sets := core.BuildSets(sys)
	for _, opt := range allOptions {
		got, err := inc.Analyze(context.Background(), opt)
		if err != nil {
			t.Errorf("%s %v: incremental: %v", tag, opt.Method, err)
			return false
		}
		want := analyze(t, sys, sets, opt)
		if !requireSameResult(t, tag+" "+opt.Method.String(), got, want) {
			return false
		}
	}
	return true
}

// TestIncrementalMatchesScratchChains is the central property of the
// delta-aware engine: a random edit chain applied incrementally yields
// results bit-identical to re-analysing the edited system from scratch,
// at every step, for every method.
func TestIncrementalMatchesScratchChains(t *testing.T) {
	prop := func(seed int64) bool {
		sys := randomSystem(t, seed, 24)
		deltas, _, err := oracle.RandomDeltas(seed, sys, 10)
		if err != nil {
			t.Fatal(err)
		}
		inc := core.NewIncremental(sys)
		if !checkStep(t, "base", inc, sys) {
			return false
		}
		cur := sys
		for di, d := range deltas {
			next, err := core.ApplyDelta(cur, d)
			if err != nil {
				t.Fatalf("seed %d delta %d (%v): %v", seed, di, d, err)
			}
			cur = next
			if err := inc.Apply(d); err != nil {
				t.Errorf("seed %d delta %d (%v): incremental apply: %v", seed, di, d, err)
				return false
			}
			if !checkStep(t, d.String(), inc, cur) {
				t.Logf("seed %d diverged at delta %d", seed, di)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalGrowShrink drives the warm-start path directly: a wave
// of interference-enlarging edits (period down, jitter up, payload up)
// followed by the exact opposites, comparing against scratch at every
// step and asserting the warm path was actually taken during the
// growing wave.
func TestIncrementalGrowShrink(t *testing.T) {
	sys := randomSystem(t, 7, 24)
	inc := core.NewIncremental(sys)
	if !checkStep(t, "base", inc, sys) {
		t.FailNow()
	}
	rng := rand.New(rand.NewSource(7))
	cur := sys
	apply := func(d core.Delta) {
		t.Helper()
		next, err := core.ApplyDelta(cur, d)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if err := inc.Apply(d); err != nil {
			t.Fatalf("%v: incremental: %v", d, err)
		}
		cur = next
		if !checkStep(t, d.String(), inc, cur) {
			t.FailNow()
		}
	}
	var grown []core.Delta
	for step := 0; step < 8; step++ {
		k := rng.Intn(cur.NumFlows())
		f := cur.Flow(k)
		var d core.Delta
		switch step % 3 {
		case 0: // period down (but not below the deadline)
			p := f.Deadline + (f.Period-f.Deadline)/2
			d = core.Delta{Kind: core.DeltaPeriod, Flow: k, Cycles: p}
		case 1: // jitter up
			d = core.Delta{Kind: core.DeltaJitter, Flow: k, Cycles: f.Jitter + noc.Cycles(50+rng.Intn(200))}
		default: // payload up
			d = core.Delta{Kind: core.DeltaLength, Flow: k, Length: f.Length + 1 + rng.Intn(64)}
		}
		grown = append(grown, core.Delta{Kind: d.Kind, Flow: k,
			Cycles: map[core.DeltaKind]noc.Cycles{core.DeltaPeriod: f.Period, core.DeltaJitter: f.Jitter}[d.Kind],
			Length: f.Length})
		apply(d)
	}
	if st := inc.Stats(); st.WarmAccepted == 0 {
		t.Errorf("growing wave never warm-started a fixed point: %+v", st)
	}
	// Undo every edit in reverse: each undo shrinks interference, so the
	// engine must take the cold path yet still match scratch exactly.
	for i := len(grown) - 1; i >= 0; i-- {
		apply(grown[i])
	}
}

// TestIncrementalBufDepthDelta covers the platform buffer-depth edit in
// both directions: invisible to SB/XLWX and to a pinned Options.BufDepth
// run, interference-growing for IBN, interference-shrinking for SLA.
func TestIncrementalBufDepthDelta(t *testing.T) {
	sys := randomSystem(t, 11, 20)
	inc := core.NewIncremental(sys)
	if !checkStep(t, "base", inc, sys) {
		t.FailNow()
	}
	cur := sys
	for _, buf := range []int{1, 8, 3, 16, 2} {
		d := core.Delta{Kind: core.DeltaBufDepth, BufDepth: buf}
		next, err := core.ApplyDelta(cur, d)
		if err != nil {
			t.Fatalf("buf %d: %v", buf, err)
		}
		if err := inc.Apply(d); err != nil {
			t.Fatalf("buf %d: incremental: %v", buf, err)
		}
		cur = next
		if !checkStep(t, d.String(), inc, cur) {
			t.FailNow()
		}
	}
}

// TestIncrementalDependencyPropagation forces a deadline edit that flips
// a high-priority flow to DeadlineMiss and back, verifying the frontier
// carries the dependency failures to every transitive dependent.
func TestIncrementalDependencyPropagation(t *testing.T) {
	sys := randomSystem(t, 13, 20)
	inc := core.NewIncremental(sys)
	if !checkStep(t, "base", inc, sys) {
		t.FailNow()
	}
	// Pick the highest-priority flow with direct dependents.
	sets := core.BuildSets(sys)
	victim := -1
	for _, i := range sys.ByPriority() {
		for j := 0; j < sys.NumFlows(); j++ {
			for _, d := range sets.Direct(j) {
				if d == i {
					victim = i
					break
				}
			}
		}
		if victim >= 0 {
			break
		}
	}
	if victim < 0 {
		t.Skip("no interference in generated system")
	}
	old := sys.Flow(victim).Deadline
	cur := sys
	for _, dl := range []noc.Cycles{1, old} {
		d := core.Delta{Kind: core.DeltaDeadline, Flow: victim, Cycles: dl}
		next, err := core.ApplyDelta(cur, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.Apply(d); err != nil {
			t.Fatal(err)
		}
		cur = next
		if !checkStep(t, d.String(), inc, cur) {
			t.FailNow()
		}
	}
}

// TestIncrementalCachedResult: with no pending edits, Analyze serves the
// previous result without re-analysing anything.
func TestIncrementalCachedResult(t *testing.T) {
	sys := randomSystem(t, 5, 16)
	inc := core.NewIncremental(sys)
	a, err := inc.Analyze(context.Background(), core.Options{Method: core.IBN})
	if err != nil {
		t.Fatal(err)
	}
	b, err := inc.Analyze(context.Background(), core.Options{Method: core.IBN})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second Analyze without edits did not reuse the published result")
	}
	st := inc.Stats()
	if st.CachedRuns != 1 || st.FullRuns != 1 {
		t.Errorf("stats = %+v, want 1 full + 1 cached run", st)
	}
}

// TestIncrementalCancellationRecovers: a cancelled Analyze must not
// poison the state — the next call falls back to a from-scratch pass
// and still matches the scratch engine.
func TestIncrementalCancellationRecovers(t *testing.T) {
	sys := randomSystem(t, 21, 24)
	inc := core.NewIncremental(sys)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := inc.Analyze(ctx, core.Options{Method: core.IBN}); err == nil {
		t.Fatal("expected cancellation error")
	}
	if !checkStep(t, "recovered", inc, sys) {
		t.FailNow()
	}
	// Cancel mid-chain: apply an edit, cancel the partial pass, recover.
	d := core.Delta{Kind: core.DeltaJitter, Flow: 0, Cycles: sys.Flow(0).Jitter + 100}
	edited, err := core.ApplyDelta(sys, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Apply(d); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Analyze(ctx, core.Options{Method: core.IBN}); err == nil {
		t.Fatal("expected cancellation error on partial pass")
	}
	if !checkStep(t, "recovered-partial", inc, edited) {
		t.FailNow()
	}
}

// TestIncrementalAddRemoveChain hammers the flow add/remove remapping:
// a chain of alternating adds and removes interleaved with parameter
// edits stays bit-identical to scratch.
func TestIncrementalAddRemoveChain(t *testing.T) {
	topo := noc.MustMesh(3, 3, noc.RouterConfig{BufDepth: 4, LinkLatency: 1})
	sys, err := workload.Synthetic(topo, workload.SynthConfig{
		NumFlows: 8, PeriodMin: 2_000, PeriodMax: 60_000, LenMin: 16, LenMax: 256, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	inc := core.NewIncremental(sys)
	if !checkStep(t, "base", inc, sys) {
		t.FailNow()
	}
	rng := rand.New(rand.NewSource(17))
	cur := sys
	prio := 100
	for step := 0; step < 12; step++ {
		var d core.Delta
		switch step % 3 {
		case 0:
			prio++
			period := noc.Cycles(3_000 + rng.Int63n(30_000))
			src := noc.NodeID(rng.Intn(9))
			dst := noc.NodeID(rng.Intn(8))
			if dst >= src {
				dst++
			}
			d = core.Delta{Kind: core.DeltaAddFlow, NewFlow: traffic.Flow{
				Name: "x", Priority: prio, Period: period, Deadline: period,
				Length: 16 + rng.Intn(64), Src: src, Dst: dst,
			}}
		case 1:
			k := rng.Intn(cur.NumFlows())
			d = core.Delta{Kind: core.DeltaPeriod, Flow: k,
				Cycles: cur.Flow(k).Deadline + noc.Cycles(rng.Int63n(10_000))}
		default:
			d = core.Delta{Kind: core.DeltaRemoveFlow, Flow: rng.Intn(cur.NumFlows())}
		}
		next, err := core.ApplyDelta(cur, d)
		if err != nil {
			t.Fatalf("step %d %v: %v", step, d, err)
		}
		if err := inc.Apply(d); err != nil {
			t.Fatalf("step %d %v: incremental: %v", step, d, err)
		}
		cur = next
		if !checkStep(t, d.String(), inc, cur) {
			t.Fatalf("diverged at step %d (%v)", step, d)
		}
	}
}

// TestIncrementalInvalidDelta: invalid edits are rejected atomically —
// the engine keeps serving results for the unedited system.
func TestIncrementalInvalidDelta(t *testing.T) {
	sys := randomSystem(t, 31, 12)
	inc := core.NewIncremental(sys)
	if !checkStep(t, "base", inc, sys) {
		t.FailNow()
	}
	bad := []core.Delta{
		{Kind: core.DeltaPeriod, Flow: -1, Cycles: 100},
		{Kind: core.DeltaPeriod, Flow: 0, Cycles: 0},
		{Kind: core.DeltaPeriod, Flow: 0, Cycles: sys.Flow(0).Deadline - 1},
		{Kind: core.DeltaPrioritySwap, Flow: 1, Other: 1},
		{Kind: core.DeltaMapping, Flow: 0, Src: 1, Dst: 1},
		{Kind: core.DeltaRemoveFlow, Flow: sys.NumFlows()},
		{Kind: core.DeltaKind(99)},
	}
	for _, d := range bad {
		if err := inc.Apply(d); err == nil {
			t.Errorf("%v: no error", d)
		}
	}
	if !checkStep(t, "after-rejects", inc, sys) {
		t.FailNow()
	}
}

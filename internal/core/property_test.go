package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/oracle"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// randomSystem generates a random, moderately loaded flow set on a random
// small mesh, deterministically in seed.
func randomSystem(t testing.TB, seed int64, maxFlows int) *traffic.System {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w, h := 2+rng.Intn(4), 2+rng.Intn(4)
	topo := noc.MustMesh(w, h, noc.RouterConfig{
		BufDepth:     1 + rng.Intn(16),
		LinkLatency:  1 + noc.Cycles(rng.Intn(2)),
		RouteLatency: noc.Cycles(rng.Intn(3)),
	})
	sys, err := workload.Synthetic(topo, workload.SynthConfig{
		NumFlows:  2 + rng.Intn(maxFlows-1),
		PeriodMin: 2_000,
		PeriodMax: 200_000,
		LenMin:    16,
		LenMax:    1024,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func analyze(t testing.TB, sys *traffic.System, sets *core.Sets, opt core.Options) *core.Result {
	t.Helper()
	res, err := core.NewEngineWithSets(sys, sets).Analyze(opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestIBNNeverLooserThanXLWX: the paper's central claim — for every flow
// whose bound both analyses can compute, R_IBN <= R_XLWX, and any flow
// set XLWX deems schedulable is also schedulable under IBN.
func TestIBNNeverLooserThanXLWX(t *testing.T) {
	prop := func(seed int64) bool {
		sys := randomSystem(t, seed, 40)
		sets := core.BuildSets(sys)
		xlwx := analyze(t, sys, sets, core.Options{Method: core.XLWX})
		ibn := analyze(t, sys, sets, core.Options{Method: core.IBN})
		for i := 0; i < sys.NumFlows(); i++ {
			if xlwx.Flows[i].Status == core.Schedulable {
				if ibn.Flows[i].Status != core.Schedulable {
					t.Logf("seed %d flow %d: XLWX schedulable but IBN %v", seed, i, ibn.Flows[i].Status)
					return false
				}
				if ibn.R(i) > xlwx.R(i) {
					t.Logf("seed %d flow %d: R_IBN %d > R_XLWX %d", seed, i, ibn.R(i), xlwx.R(i))
					return false
				}
			}
		}
		if xlwx.Schedulable && !ibn.Schedulable {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestSBNeverLooserThanXLWX: SB's (optimistic) bounds never exceed
// XLWX's, which is exactly why SB appears as the top curve of Figure 4.
func TestSBNeverLooserThanXLWX(t *testing.T) {
	prop := func(seed int64) bool {
		sys := randomSystem(t, seed, 40)
		sets := core.BuildSets(sys)
		xlwx := analyze(t, sys, sets, core.Options{Method: core.XLWX})
		sb := analyze(t, sys, sets, core.Options{Method: core.SB})
		for i := 0; i < sys.NumFlows(); i++ {
			if xlwx.Flows[i].Status == core.Schedulable && sb.Flows[i].Status == core.Schedulable {
				if sb.R(i) > xlwx.R(i) {
					t.Logf("seed %d flow %d: R_SB %d > R_XLWX %d", seed, i, sb.R(i), xlwx.R(i))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestIBNMonotoneInBufferDepth: the counter-intuitive headline — IBN
// bounds never decrease as buffers grow.
func TestIBNMonotoneInBufferDepth(t *testing.T) {
	depths := []int{1, 2, 4, 10, 32, 100}
	prop := func(seed int64) bool {
		sys := randomSystem(t, seed, 30)
		sets := core.BuildSets(sys)
		prev := make([]noc.Cycles, sys.NumFlows())
		for i := range prev {
			prev[i] = -1
		}
		for _, d := range depths {
			res := analyze(t, sys, sets, core.Options{Method: core.IBN, BufDepth: d})
			for i := 0; i < sys.NumFlows(); i++ {
				if res.Flows[i].Status != core.Schedulable {
					continue
				}
				if prev[i] >= 0 && res.R(i) < prev[i] {
					t.Logf("seed %d flow %d: R at buf=%d is %d < previous %d",
						seed, i, d, res.R(i), prev[i])
					return false
				}
				prev[i] = res.R(i)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEq7AtLeastEq8: the unclamped Equation 7 is never tighter than the
// clamped Equation 8 (the min can only reduce the term).
func TestEq7AtLeastEq8(t *testing.T) {
	prop := func(seed int64) bool {
		sys := randomSystem(t, seed, 30)
		sets := core.BuildSets(sys)
		eq8 := analyze(t, sys, sets, core.Options{Method: core.IBN, BufDepth: 8})
		eq7 := analyze(t, sys, sets, core.Options{Method: core.IBN, BufDepth: 8, Eq7: true})
		for i := 0; i < sys.NumFlows(); i++ {
			if eq7.Flows[i].Status == core.Schedulable && eq8.Flows[i].Status == core.Schedulable {
				if eq7.R(i) < eq8.R(i) {
					t.Logf("seed %d flow %d: eq7 %d < eq8 %d", seed, i, eq7.R(i), eq8.R(i))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestNoFallbackAtMostDefault: disabling the upstream-interference
// fallback can only tighten (it replaces XLWX terms with Eq. 8 terms) —
// that is precisely why it risks optimism and exists only as an ablation.
func TestNoFallbackAtMostDefault(t *testing.T) {
	prop := func(seed int64) bool {
		sys := randomSystem(t, seed, 30)
		sets := core.BuildSets(sys)
		def := analyze(t, sys, sets, core.Options{Method: core.IBN, BufDepth: 4})
		nofb := analyze(t, sys, sets, core.Options{Method: core.IBN, BufDepth: 4, NoUpstreamFallback: true})
		for i := 0; i < sys.NumFlows(); i++ {
			if def.Flows[i].Status == core.Schedulable && nofb.Flows[i].Status == core.Schedulable {
				if nofb.R(i) > def.R(i) {
					t.Logf("seed %d flow %d: nofallback %d > default %d", seed, i, nofb.R(i), def.R(i))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBoundsAtLeastZeroLoad: every computed bound is at least the
// zero-load latency. On single-cycle links the highest-priority flow's
// bound is exactly C; on multi-cycle links it additionally carries the
// non-preemptive flit-transfer blocking of up to (linkl-1) per shared
// link (see blocking.go).
func TestBoundsAtLeastZeroLoad(t *testing.T) {
	prop := func(seed int64) bool {
		sys := randomSystem(t, seed, 30)
		sets := core.BuildSets(sys)
		linkl := sys.Topology().Config().LinkLatency
		for _, m := range []core.Method{core.SB, core.XLWX, core.IBN} {
			res := analyze(t, sys, sets, core.Options{Method: m})
			for i := 0; i < sys.NumFlows(); i++ {
				if res.Flows[i].Status == core.Schedulable && res.R(i) < sys.C(i) {
					return false
				}
				if sys.Flow(i).Priority == 1 {
					maxBlock := (linkl - 1) * noc.Cycles(sys.Route(i).Len())
					if res.Flows[i].Status != core.Schedulable {
						// A top-priority flow misses only when its
						// zero-load bound alone overruns the deadline.
						if res.Flows[i].Status != core.DeadlineMiss || res.R(i) <= sys.Flow(i).Deadline {
							return false
						}
						continue
					}
					if res.R(i) < sys.C(i) || res.R(i) > sys.C(i)+maxBlock {
						t.Logf("seed %d: top-priority flow has R=%d C=%d linkl=%d",
							seed, res.R(i), sys.C(i), linkl)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestIBNMonotoneDirectPair: the sharpest form of buffer monotonicity —
// for a directly adjacent pair of depths (b, b+1) the bound at b+1 is
// never below the bound at b. The ladder test above can only see
// monotonicity breaches between its fixed rungs; the pair test pins the
// property where a regression would first appear.
func TestIBNMonotoneDirectPair(t *testing.T) {
	prop := func(seed int64, rawDepth uint8) bool {
		sys := randomSystem(t, seed, 30)
		sets := core.BuildSets(sys)
		b := 1 + int(rawDepth)%32
		at := analyze(t, sys, sets, core.Options{Method: core.IBN, BufDepth: b})
		next := analyze(t, sys, sets, core.Options{Method: core.IBN, BufDepth: b + 1})
		for i := 0; i < sys.NumFlows(); i++ {
			if at.Flows[i].Status != core.Schedulable || next.Flows[i].Status != core.Schedulable {
				continue
			}
			if next.R(i) < at.R(i) {
				t.Logf("seed %d flow %d: R at buf=%d is %d < %d at buf=%d",
					seed, i, b+1, next.R(i), at.R(i), b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The same central claims, checked over the verification oracle's
// scenario distribution: unlike randomSystem's synthetic workloads,
// oracle scenarios include 1×N lines, YX routing and jittered flows,
// and are biased towards schedulable (hence comparable) bounds.
func TestInvariantsOverOracleScenarios(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		sc := oracle.Generate(seed, oracle.GenConfig{})
		sys, err := sc.System()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sets := core.BuildSets(sys)
		xlwx := analyze(t, sys, sets, core.Options{Method: core.XLWX})
		ibn := analyze(t, sys, sets, core.Options{Method: core.IBN})
		ibnNext := analyze(t, sys, sets, core.Options{Method: core.IBN, BufDepth: sys.Topology().Config().BufDepth + 1})
		for i := 0; i < sys.NumFlows(); i++ {
			if xlwx.Flows[i].Status != core.Schedulable {
				continue
			}
			if ibn.Flows[i].Status != core.Schedulable {
				t.Errorf("seed %d flow %d: XLWX schedulable but IBN %v", seed, i, ibn.Flows[i].Status)
				continue
			}
			if ibn.R(i) > xlwx.R(i) {
				t.Errorf("seed %d flow %d: R_IBN %d > R_XLWX %d", seed, i, ibn.R(i), xlwx.R(i))
			}
			if ibnNext.Flows[i].Status == core.Schedulable && ibnNext.R(i) < ibn.R(i) {
				t.Errorf("seed %d flow %d: one extra buffer flit tightened R_IBN %d -> %d",
					seed, i, ibn.R(i), ibnNext.R(i))
			}
		}
	}
}

// TestAnalysisDeterminism: analysing the same system twice gives
// identical results (the memoisation must not depend on map order).
func TestAnalysisDeterminism(t *testing.T) {
	sys := randomSystem(t, 424242, 40)
	for _, m := range []core.Method{core.SB, core.XLWX, core.IBN} {
		a := analyze(t, sys, core.BuildSets(sys), core.Options{Method: m})
		b := analyze(t, sys, core.BuildSets(sys), core.Options{Method: m})
		for i := 0; i < sys.NumFlows(); i++ {
			if a.Flows[i] != b.Flows[i] {
				t.Errorf("%v flow %d: %+v vs %+v", m, i, a.Flows[i], b.Flows[i])
			}
		}
	}
}

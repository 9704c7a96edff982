package exhaustive

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
)

// rc is the canonical tiny-platform router: unit link latency, zero
// routing latency, deep-enough buffers that credit stalls don't add
// incidental latency to the hand derivations.
var rc = noc.RouterConfig{BufDepth: 4, LinkLatency: 1}

func line2(t *testing.T) *noc.Topology {
	t.Helper()
	topo, err := noc.NewMesh(2, 1, rc)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func mesh22(t *testing.T) *noc.Topology {
	t.Helper()
	topo, err := noc.NewMesh(2, 2, rc)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestExploreHandChecked pins the exhaustive worst case of systems small
// enough to derive on paper, and asserts the randomised search attains
// the same value (search == exhaustive) on each: these grids are tiny,
// so a search that can't saturate them would be a search bug.
func TestExploreHandChecked(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *traffic.System
		// want[i] is flow i's true worst-case latency over the canonical
		// phasing class, derived in the comments below.
		want []noc.Cycles
	}{
		{
			// A solo flow sees no interference at any phasing: its worst
			// case is the zero-load latency, here routl·2 + linkl·3 +
			// linkl·(3-1) = 5 over the 3-link route (injection, mesh,
			// ejection).
			name: "solo flow is zero-load",
			build: func(t *testing.T) *traffic.System {
				return traffic.MustSystem(line2(t), []traffic.Flow{
					{Name: "solo", Priority: 1, Period: 10, Deadline: 10, Length: 3, Src: 0, Dst: 1},
				})
			},
			want: []noc.Cycles{5},
		},
		{
			// Link-disjoint flows on the 2x2 mesh (XY routing keeps 0->1
			// on the top row and 2->3 on the bottom row) cannot interact:
			// both worst cases are their zero-load latencies regardless of
			// phasing. C = 3 + (L-1).
			name: "disjoint flows stay zero-load",
			build: func(t *testing.T) *traffic.System {
				return traffic.MustSystem(mesh22(t), []traffic.Flow{
					{Name: "top", Priority: 1, Period: 6, Deadline: 6, Length: 2, Src: 0, Dst: 1},
					{Name: "bottom", Priority: 2, Period: 9, Deadline: 9, Length: 3, Src: 2, Dst: 3},
				})
			},
			want: []noc.Cycles{4, 5},
		},
		{
			// One shared link chain, two flows (the ISSUE's 1-link/2-flow
			// case): h and l share the whole 0->1 route. h always wins
			// every arbitration, so its worst case is its zero-load
			// latency C_h = 3 + (2-1) = 4. l's worst response satisfies
			// the classic recurrence R = C_l + ceil(R/P_h)*L_h: with
			// C_l = 5, L_h = 2, P_h = 8 the fixed point is R = 7 — one h
			// packet's flits ever fit inside l's response window.
			name: "single-link contention pair",
			build: func(t *testing.T) *traffic.System {
				return traffic.MustSystem(line2(t), []traffic.Flow{
					{Name: "h", Priority: 1, Period: 8, Deadline: 8, Length: 2, Src: 0, Dst: 1},
					{Name: "l", Priority: 2, Period: 12, Deadline: 12, Length: 3, Src: 0, Dst: 1},
				})
			},
			want: []noc.Cycles{4, 7},
		},
		{
			// The ISSUE's 2x1-line/3-flow case: two flows contend for the
			// 0->1 direction while the third rides the disjoint 1->0
			// direction. h: zero-load 3 + 1 = 4. l: R = C_l + ceil(R/P_h)*L_h
			// with C_l = 3 + 3 = 6, L_h = 2, P_h = 10 gives R = 8.
			// back: solo on its direction, zero-load 3 + 1 = 4.
			name: "line three flows",
			build: func(t *testing.T) *traffic.System {
				return traffic.MustSystem(line2(t), []traffic.Flow{
					{Name: "h", Priority: 1, Period: 10, Deadline: 10, Length: 2, Src: 0, Dst: 1},
					{Name: "l", Priority: 2, Period: 14, Deadline: 14, Length: 4, Src: 0, Dst: 1},
					{Name: "back", Priority: 3, Period: 9, Deadline: 9, Length: 2, Src: 1, Dst: 0},
				})
			},
			want: []noc.Cycles{4, 8, 4},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.build(t)
			res, err := Explore(sys, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Complete {
				t.Fatal("tiny grid not explored completely")
			}
			if res.States != res.Space.ReducedGridSize {
				t.Fatalf("complete run states=%d, want reduced grid %d",
					res.States, res.Space.ReducedGridSize)
			}
			if res.States > res.Space.GridSize {
				t.Fatalf("reduced run simulated %d states, more than the raw grid %d",
					res.States, res.Space.GridSize)
			}
			if red := res.Reductions; red.Mode != ReduceAll ||
				red.RawGridSize != res.Space.GridSize ||
				red.ReducedGridSize != res.Space.ReducedGridSize ||
				red.StatesSaved != red.RawGridSize-red.ReducedGridSize ||
				red.Clusters != len(res.Space.Clusters) {
				t.Fatalf("inconsistent reduction stats: %+v (space %+v)", red, res.Space)
			}
			for i := range tc.want {
				if got := res.Flows[i].Worst; got != tc.want[i] {
					t.Errorf("flow %d: exhaustive worst %d, hand-derived %d", i, got, tc.want[i])
				}
				if !res.Proven(i) {
					t.Errorf("flow %d: complete uncensored run not proven", i)
				}
				if res.Flows[i].Censored != 0 || res.Flows[i].DeadlineMisses != 0 {
					t.Errorf("flow %d: unexpected censoring %d / misses %d",
						i, res.Flows[i].Censored, res.Flows[i].DeadlineMisses)
				}
				// The witness phasing must replay to the reported worst.
				rr, err := sim.Run(sys, sim.Config{Duration: res.Duration, Offsets: res.Flows[i].Offsets})
				if err != nil {
					t.Fatal(err)
				}
				if rr.WorstLatency[i] != res.Flows[i].Worst {
					t.Errorf("flow %d: witness offsets replay to %d, reported %d",
						i, rr.WorstLatency[i], res.Flows[i].Worst)
				}
				// search == exhaustive on these grids: the randomised
				// search explores a subset of the same class, so it can
				// never exceed the exhaustive value, and on grids this
				// small it must reach it.
				sr, err := sim.SearchWorstCase(sys, sim.SearchConfig{
					Base:   sim.Config{Duration: res.Duration},
					Target: i, Seed: 1, Workers: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if sr.Worst > res.Flows[i].Worst {
					t.Errorf("flow %d: search found %d above exhaustive %d — enumeration is not exhaustive",
						i, sr.Worst, res.Flows[i].Worst)
				}
				if sr.Worst != res.Flows[i].Worst {
					t.Errorf("flow %d: search %d != exhaustive %d on a trivially saturable grid",
						i, sr.Worst, res.Flows[i].Worst)
				}
			}
		})
	}
}

// TestExploreDeterministicAcrossWorkers asserts bit-identical results at
// any parallelism, under every reduction mode.
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	sys := traffic.MustSystem(line2(t), []traffic.Flow{
		{Name: "h", Priority: 1, Period: 8, Deadline: 8, Length: 2, Src: 0, Dst: 1},
		{Name: "l", Priority: 2, Period: 12, Deadline: 12, Length: 3, Src: 0, Dst: 1},
		{Name: "back", Priority: 3, Period: 10, Deadline: 10, Length: 2, Src: 1, Dst: 0},
	})
	for _, cfg := range []Config{
		{},
		{Reduce: ReduceNone},
		{Reduce: ReduceSymmetry},
		{Reduce: ReduceClusters},
	} {
		var base *Result
		for _, workers := range []int{1, 2, 8} {
			c := cfg
			c.Workers = workers
			res, err := Explore(sys, c)
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = res
				continue
			}
			if !reflect.DeepEqual(base, res) {
				t.Fatalf("cfg %+v: result differs between workers=1 and workers=%d:\n%+v\nvs\n%+v",
					cfg, workers, base, res)
			}
		}
	}
}

// TestExploreRepeatable asserts two identical invocations return
// bit-identical results (no hidden map-iteration or timing dependence).
func TestExploreRepeatable(t *testing.T) {
	sys := traffic.MustSystem(line2(t), []traffic.Flow{
		{Name: "h", Priority: 1, Period: 8, Deadline: 8, Length: 2, Src: 0, Dst: 1},
		{Name: "l", Priority: 2, Period: 12, Deadline: 12, Length: 3, Src: 0, Dst: 1},
	})
	a, err := Explore(sys, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(sys, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated runs differ:\n%+v\nvs\n%+v", a, b)
	}
}

// TestExploreOverBudgetRefuses: a reduced space beyond MaxStates is
// refused with an error naming the budget, never explored in part.
func TestExploreOverBudgetRefuses(t *testing.T) {
	sys := traffic.MustSystem(line2(t), []traffic.Flow{
		{Name: "h", Priority: 1, Period: 8, Deadline: 8, Length: 2, Src: 0, Dst: 1},
		{Name: "l", Priority: 2, Period: 12, Deadline: 12, Length: 3, Src: 0, Dst: 1},
	})
	for _, mode := range []Reduction{ReduceAll, ReduceNone} {
		res, err := Explore(sys, Config{MaxStates: 10, Reduce: mode})
		if err == nil || res != nil {
			t.Fatalf("mode %v: over-budget space gave result %v, error %v; want nil and an error", mode, res, err)
		}
		if !strings.Contains(err.Error(), "state budget of 10") {
			t.Fatalf("mode %v: error %q does not name the budget", mode, err)
		}
	}
}

// TestExploreCensoring: an overloaded link must surface as censored
// phasings and deadline misses, voiding the proof claim for the starved
// flow while the fully-preempting top-priority flow stays provable.
func TestExploreCensoring(t *testing.T) {
	// Utilisation on the shared 0->1 path is 6/8 + 6/8 > 1: the
	// low-priority flow's backlog grows without bound, so late packets
	// never complete inside any horizon.
	sys := traffic.MustSystem(line2(t), []traffic.Flow{
		{Name: "h", Priority: 1, Period: 8, Deadline: 8, Length: 6, Src: 0, Dst: 1},
		{Name: "l", Priority: 2, Period: 8, Deadline: 8, Length: 6, Src: 0, Dst: 1},
	})
	res, err := Explore(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("tiny grid not complete")
	}
	if res.Flows[1].Censored == 0 && res.Flows[1].DeadlineMisses == 0 {
		t.Fatal("overloaded low-priority flow shows neither censoring nor deadline misses")
	}
	if res.Proven(1) {
		t.Fatal("starved flow claims a proven worst case")
	}
	if !res.Proven(0) {
		t.Fatal("top-priority flow of a complete run should stay proven")
	}
}

// TestPlanLimits: structural refusals — too many flows, too many nodes,
// grid overflow — are Plan errors, not silent downgrades.
func TestPlanLimits(t *testing.T) {
	big, err := noc.NewMesh(3, 3, rc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Plan(traffic.MustSystem(big, []traffic.Flow{
		{Name: "a", Priority: 1, Period: 10, Deadline: 10, Length: 2, Src: 0, Dst: 8},
	})); err == nil {
		t.Error("9-node mesh accepted")
	}

	topo := line2(t)
	five := make([]traffic.Flow, 5)
	for i := range five {
		five[i] = traffic.Flow{Priority: i + 1, Period: 10, Deadline: 10, Length: 1, Src: 0, Dst: 1}
	}
	if _, err := Plan(traffic.MustSystem(topo, five)); err == nil {
		t.Error("5-flow system accepted")
	}

	huge := noc.Cycles(math.MaxInt64 / 2)
	if _, err := Plan(traffic.MustSystem(topo, []traffic.Flow{
		{Name: "a", Priority: 1, Period: huge, Deadline: huge, Length: 1, Src: 0, Dst: 1},
		{Name: "b", Priority: 2, Period: huge - 1, Deadline: huge - 1, Length: 1, Src: 0, Dst: 1},
	})); err == nil {
		t.Error("overflowing phasing grid accepted")
	}

	// The horizon Hyperperiod + 2·MaxDeadline + 1 can overflow even when
	// the grid does not (a solo flow's grid is just its period): it must
	// be refused as a structural error, not wrapped into a negative
	// duration.
	if _, err := Plan(traffic.MustSystem(topo, []traffic.Flow{
		{Name: "a", Priority: 1, Period: huge, Deadline: huge, Length: 1, Src: 0, Dst: 1},
	})); err == nil {
		t.Error("overflowing suggested horizon accepted")
	} else if !strings.Contains(err.Error(), "periods too large") {
		t.Errorf("horizon overflow error %q does not say periods too large", err)
	}

	// H + 2D + 1 = 3·2⁶¹ + 1 fits in int64, but the simulator also needs
	// horizon + T + J + C to fit: Plan must refuse what sim would.
	t61 := noc.Cycles(1) << 61
	if _, err := Plan(traffic.MustSystem(topo, []traffic.Flow{
		{Name: "solo", Priority: 1, Period: t61, Deadline: t61, Length: 1, Src: 0, Dst: 1},
	})); err == nil {
		t.Error("horizon the simulator refuses accepted")
	} else if !strings.Contains(err.Error(), "periods too large") {
		t.Errorf("simulator-horizon error %q does not say periods too large", err)
	}

	sp, err := Plan(traffic.MustSystem(topo, []traffic.Flow{
		{Name: "a", Priority: 1, Period: 6, Deadline: 5, Length: 2, Src: 0, Dst: 1},
		{Name: "b", Priority: 2, Period: 10, Deadline: 9, Length: 2, Src: 0, Dst: 1},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if sp.GridSize != 60 {
		t.Errorf("grid size %d, want 60", sp.GridSize)
	}
	if sp.Hyperperiod != 30 {
		t.Errorf("hyperperiod %d, want 30", sp.Hyperperiod)
	}
	if sp.SuggestedDuration != 30+2*9+1 {
		t.Errorf("suggested duration %d, want %d", sp.SuggestedDuration, 30+2*9+1)
	}
	// Both flows share the 0->1 route: one cluster, whose quotient is
	// Π Pᵢ − Π (Pᵢ−1) = 60 − 5·9 = 15.
	if len(sp.Clusters) != 1 || !reflect.DeepEqual(sp.Clusters[0].Flows, []int{0, 1}) {
		t.Fatalf("clusters = %+v, want one cluster {0,1}", sp.Clusters)
	}
	if sp.Clusters[0].GridSize != 60 || sp.Clusters[0].QuotientSize != 15 {
		t.Errorf("cluster sizing %+v, want grid 60 quotient 15", sp.Clusters[0])
	}
	if sp.ReducedGridSize != 15 {
		t.Errorf("reduced grid %d, want 15", sp.ReducedGridSize)
	}
	for _, tc := range []struct {
		mode Reduction
		want int64
	}{
		{ReduceNone, 60}, {ReduceClusters, 60}, {ReduceSymmetry, 15}, {ReduceAll, 15},
	} {
		if got := sp.SizeUnder(tc.mode); got != tc.want {
			t.Errorf("SizeUnder(%v) = %d, want %d", tc.mode, got, tc.want)
		}
	}
}

// TestExploreMPBChainSBOptimistic pins, by complete proof, a system where
// multi-point progressive blocking makes SB optimistic and the
// buffer-aware terms are what cover it. On a 1×4 line with buf = 3, τk
// (2→3) blocks τj (0→3) downstream of τj's contention domain with τi
// (0→2); τj's stalled flits then replay into τi. SB charges τj's
// packet once and claims 22; the proven worst is 24. XLWX and IBN both
// bound it at 31, a sound deadline miss against D = 24: Eq. 8's min
// saves nothing here, since bi_ij = buf·|cd_ij| = 9 equals C_k.
func TestExploreMPBChainSBOptimistic(t *testing.T) {
	topo, err := noc.NewMesh(4, 1, noc.RouterConfig{BufDepth: 3, LinkLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "k", Priority: 1, Period: 48, Deadline: 48, Length: 7, Src: 2, Dst: 3},
		{Name: "j", Priority: 2, Period: 48, Deadline: 48, Length: 10, Src: 0, Dst: 3},
		{Name: "i", Priority: 3, Period: 24, Deadline: 24, Length: 5, Src: 0, Dst: 2},
	})
	res, err := Explore(sys, Config{MaxStates: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	const i = 2
	if !res.Complete || !res.Proven(i) {
		t.Fatalf("want a complete proof for τi: complete=%v", res.Complete)
	}
	worst := res.Flows[i].Worst
	if worst != 24 {
		t.Fatalf("τi's proven worst = %d, want 24", worst)
	}
	bound := map[core.Method]noc.Cycles{}
	for _, m := range []core.Method{core.SB, core.XLWX, core.IBN} {
		r, err := core.Analyze(sys, core.Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		bound[m] = r.Flows[i].R
	}
	if !(bound[core.SB] < worst && worst <= bound[core.IBN] && bound[core.IBN] <= bound[core.XLWX]) {
		t.Fatalf("want SB < worst <= IBN <= XLWX, got SB=%d worst=%d IBN=%d XLWX=%d",
			bound[core.SB], worst, bound[core.IBN], bound[core.XLWX])
	}
}

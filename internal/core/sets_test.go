package core_test

import (
	"testing"
	"testing/quick"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// lineSystem builds flows on a 10-router line; each spec is
// (priority, src, dst).
func lineSystem(t *testing.T, specs ...[3]int) *traffic.System {
	t.Helper()
	topo := noc.MustMesh(10, 1, noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0})
	flows := make([]traffic.Flow, len(specs))
	for i, s := range specs {
		flows[i] = traffic.Flow{
			Name:     string(rune('a' + i)),
			Priority: s[0],
			Period:   1_000_000,
			Deadline: 1_000_000,
			Length:   10,
			Src:      noc.NodeID(s[1]),
			Dst:      noc.NodeID(s[2]),
		}
	}
	return traffic.MustSystem(topo, flows)
}

// TestUpstreamDownstreamPartition builds the two canonical geometries of
// Xiong et al.'s definitions: an indirect interferer hitting τj before
// (upstream) and after (downstream) its contention domain with τi.
func TestUpstreamDownstreamPartition(t *testing.T) {
	// Flow 0 = τk (P1), flow 1 = τj (P2), flow 2 = τi (P3).
	// τj runs 0→9. τi shares the middle (3..6). τk placement varies.
	t.Run("downstream", func(t *testing.T) {
		sys := lineSystem(t,
			[3]int{1, 7, 9}, // τk on links after τi's segment
			[3]int{2, 0, 9},
			[3]int{3, 3, 6},
		)
		sets := core.BuildSets(sys)
		if got := sets.Downstream(2, 1); len(got) != 1 || got[0] != 0 {
			t.Errorf("Downstream = %v, want [0]", got)
		}
		if got := sets.Upstream(2, 1); len(got) != 0 {
			t.Errorf("Upstream = %v, want empty", got)
		}
	})
	t.Run("upstream", func(t *testing.T) {
		sys := lineSystem(t,
			[3]int{1, 0, 2}, // τk on links before τi's segment
			[3]int{2, 0, 9},
			[3]int{3, 3, 6},
		)
		sets := core.BuildSets(sys)
		if got := sets.Upstream(2, 1); len(got) != 1 || got[0] != 0 {
			t.Errorf("Upstream = %v, want [0]", got)
		}
		if got := sets.Downstream(2, 1); len(got) != 0 {
			t.Errorf("Downstream = %v, want empty", got)
		}
	})
	t.Run("both", func(t *testing.T) {
		sys := lineSystem(t,
			[3]int{1, 0, 2}, // upstream τk
			[3]int{2, 7, 9}, // downstream τk'
			[3]int{3, 0, 9}, // τj
			[3]int{4, 3, 6}, // τi
		)
		sets := core.BuildSets(sys)
		if got := sets.Upstream(3, 2); len(got) != 1 || got[0] != 0 {
			t.Errorf("Upstream = %v, want [0]", got)
		}
		if got := sets.Downstream(3, 2); len(got) != 1 || got[0] != 1 {
			t.Errorf("Downstream = %v, want [1]", got)
		}
	})
}

// TestIndirectExcludesDirect: a flow sharing links with τi belongs to
// S^D_i and must not appear in S^I_i even if it also interferes with a
// direct interferer.
func TestIndirectExcludesDirect(t *testing.T) {
	sys := lineSystem(t,
		[3]int{1, 2, 8}, // shares with both others: direct for both
		[3]int{2, 0, 9},
		[3]int{3, 3, 6},
	)
	sets := core.BuildSets(sys)
	if got := sets.Direct(2); len(got) != 2 {
		t.Fatalf("S^D = %v, want two direct interferers", got)
	}
	if got := sets.Indirect(2); len(got) != 0 {
		t.Errorf("S^I = %v, want empty (flow 0 is direct)", got)
	}
}

// TestLowerPriorityNeverInterferes: lower-priority flows appear in no
// interference set.
func TestLowerPriorityNeverInterferes(t *testing.T) {
	sys := lineSystem(t,
		[3]int{3, 0, 9}, // lowest priority despite being first
		[3]int{1, 3, 6},
		[3]int{2, 2, 8},
	)
	sets := core.BuildSets(sys)
	if got := sets.Direct(1); len(got) != 0 {
		t.Errorf("highest-priority flow has S^D = %v", got)
	}
	for _, j := range sets.Direct(0) {
		if !sys.HigherPriority(j, 0) {
			t.Errorf("flow %d in S^D(0) has lower priority", j)
		}
	}
	for _, k := range sets.Indirect(0) {
		if !sys.HigherPriority(k, 0) {
			t.Errorf("flow %d in S^I(0) has lower priority", k)
		}
	}
}

// TestPartitionDisjointAndWithinSets: over random systems, the
// upstream/downstream partitions are disjoint subsets of S^I_i ∩ S^D_j.
func TestPartitionDisjointAndWithinSets(t *testing.T) {
	prop := func(seed int64) bool {
		sys := randomSystem(t, seed, 25)
		sets := core.BuildSets(sys)
		for i := 0; i < sys.NumFlows(); i++ {
			indirect := make(map[int]bool)
			for _, k := range sets.Indirect(i) {
				indirect[k] = true
			}
			for _, j := range sets.Direct(i) {
				up := sets.Upstream(i, j)
				down := sets.Downstream(i, j)
				inUp := make(map[int]bool)
				for _, k := range up {
					inUp[k] = true
					if !indirect[k] {
						t.Logf("seed %d: upstream member %d not in S^I(%d)", seed, k, i)
						return false
					}
					if !sys.HigherPriority(k, j) || len(sets.CD(j, k)) == 0 {
						return false
					}
				}
				for _, k := range down {
					if inUp[k] {
						t.Logf("seed %d: flow %d both upstream and downstream", seed, k)
						return false
					}
					if !indirect[k] {
						return false
					}
					if !sys.HigherPriority(k, j) || len(sets.CD(j, k)) == 0 {
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

// TestCDSymmetricSameLinks: cd(i,j) and cd(j,i) contain the same links.
func TestCDSymmetricSameLinks(t *testing.T) {
	prop := func(seed int64) bool {
		sys := randomSystem(t, seed, 20)
		sets := core.BuildSets(sys)
		n := sys.NumFlows()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a, b := sets.CD(i, j), sets.CD(j, i)
				if len(a) != len(b) {
					return false
				}
				m := make(map[noc.LinkID]bool, len(a))
				for _, l := range a {
					m[l] = true
				}
				for _, l := range b {
					if !m[l] {
						return false
					}
				}
				// Ordered along route_i.
				if !sys.Route(i).IsContiguousIn(a) {
					t.Logf("seed %d: cd(%d,%d) not contiguous along route %d", seed, i, j, i)
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

// TestBufferedInterferenceFormula pins Equation 6 against a hand
// computation on varying configurations.
func TestBufferedInterferenceFormula(t *testing.T) {
	topo := noc.MustMesh(10, 1, noc.RouterConfig{BufDepth: 5, LinkLatency: 3, RouteLatency: 2})
	sys := traffic.MustSystem(topo, []traffic.Flow{
		{Name: "j", Priority: 1, Period: 1e6, Deadline: 1e6, Length: 10, Src: 0, Dst: 9},
		{Name: "i", Priority: 2, Period: 1e6, Deadline: 1e6, Length: 10, Src: 2, Dst: 6},
	})
	sets := core.BuildSets(sys)
	// cd(i=1, j=0) = mesh links r2→r3..r5→r6 = 4 links.
	if got := len(sets.CD(1, 0)); got != 4 {
		t.Fatalf("|cd| = %d, want 4", got)
	}
	if got, want := sets.BufferedInterference(1, 0, 0), noc.Cycles(5*3*4); got != want {
		t.Errorf("bi = %d, want %d", got, want)
	}
	if got, want := sets.BufferedInterference(1, 0, 2), noc.Cycles(2*3*4); got != want {
		t.Errorf("bi override = %d, want %d", got, want)
	}
}

// TestClusters pins the contention-cluster decomposition on hand-built
// geometries: chains of pairwise-sharing flows coalesce transitively,
// link-disjoint flows stay apart, and the ordering contract (clusters by
// smallest member, members ascending) holds.
func TestClusters(t *testing.T) {
	t.Run("chain coalesces transitively", func(t *testing.T) {
		// a(0→4) shares with b(3→7), b shares with c(6→9), but a and c
		// are link-disjoint: one cluster all the same, via b.
		sys := lineSystem(t,
			[3]int{1, 0, 4},
			[3]int{2, 3, 7},
			[3]int{3, 6, 9},
		)
		got := core.BuildSets(sys).Clusters()
		if len(got) != 1 || len(got[0]) != 3 {
			t.Fatalf("Clusters = %v, want one cluster of all three", got)
		}
	})
	t.Run("disjoint flows split", func(t *testing.T) {
		// Two contending pairs on disjoint segments plus one solo flow.
		sys := lineSystem(t,
			[3]int{1, 0, 2},
			[3]int{2, 1, 3},
			[3]int{3, 5, 7},
			[3]int{4, 6, 8},
			[3]int{5, 9, 4}, // opposite direction: disjoint links
		)
		got := core.BuildSets(sys).Clusters()
		want := [][]int{{0, 1}, {2, 3}, {4}}
		if len(got) != len(want) {
			t.Fatalf("Clusters = %v, want %v", got, want)
		}
		for c := range want {
			if len(got[c]) != len(want[c]) {
				t.Fatalf("Clusters = %v, want %v", got, want)
			}
			for k := range want[c] {
				if got[c][k] != want[c][k] {
					t.Fatalf("Clusters = %v, want %v", got, want)
				}
			}
		}
	})
	t.Run("every flow appears exactly once", func(t *testing.T) {
		sys := lineSystem(t,
			[3]int{3, 0, 9},
			[3]int{1, 2, 5},
			[3]int{2, 9, 0},
			[3]int{4, 4, 8},
		)
		seen := make(map[int]int)
		for _, cl := range core.BuildSets(sys).Clusters() {
			for _, f := range cl {
				seen[f]++
			}
		}
		for i := 0; i < sys.NumFlows(); i++ {
			if seen[i] != 1 {
				t.Errorf("flow %d appears %d times across clusters", i, seen[i])
			}
		}
	})
}

// TestReturnedSlicesAreCallerOwned guards the pair table's shared
// storage: the partitions handed out by Sets.Upstream/Downstream and by
// Explain's terms, and the domains from Sets.CD, are the caller's to
// scribble over. Overwriting every one of them and re-analysing with the
// same engine must change no bound and no later breakdown.
func TestReturnedSlicesAreCallerOwned(t *testing.T) {
	topo := noc.MustMesh(4, 4, noc.RouterConfig{BufDepth: 2, LinkLatency: 1})
	sys, err := workload.Synthetic(topo, workload.SynthConfig{NumFlows: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(sys)
	sets := eng.Sets()
	methods := []core.Method{core.SB, core.XLWX, core.IBN}
	analyzeAll := func() []*core.Result {
		out := make([]*core.Result, len(methods))
		for x, m := range methods {
			res, err := eng.Analyze(core.Options{Method: m})
			if err != nil {
				t.Fatal(err)
			}
			out[x] = res
		}
		return out
	}
	explainAll := func() []*core.Breakdown {
		var out []*core.Breakdown
		for i := 0; i < sys.NumFlows(); i++ {
			b, err := eng.Explain(core.Options{Method: core.IBN}, i)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	scribble := func(s []int) int {
		for x := range s {
			s[x] = -1 - x
		}
		return len(s)
	}
	before, breakdowns := analyzeAll(), explainAll()
	reference := explainAll()

	mutated := 0
	for _, b := range breakdowns {
		for _, tm := range b.Terms {
			mutated += scribble(tm.Downstream) + scribble(tm.Upstream)
		}
	}
	for i := 0; i < sys.NumFlows(); i++ {
		for _, j := range sets.Direct(i) {
			mutated += scribble(sets.Upstream(i, j)) + scribble(sets.Downstream(i, j))
			cd := sets.CD(i, j)
			for x := range cd {
				cd[x] = noc.NoLink
			}
		}
	}
	if mutated == 0 {
		t.Fatal("no non-empty partition was handed out: the guard is vacuous")
	}

	for x, res := range analyzeAll() {
		requireSameResult(t, "after mutation "+methods[x].String(), res, before[x])
	}
	for i, b := range explainAll() {
		want := reference[i]
		if len(b.Terms) != len(want.Terms) {
			t.Fatalf("flow %d: %d terms after mutation, %d before", i, len(b.Terms), len(want.Terms))
		}
		for x := range b.Terms {
			got, ref := b.Terms[x], want.Terms[x]
			if !sameInts(got.Downstream, ref.Downstream) || !sameInts(got.Upstream, ref.Upstream) ||
				got.Total != ref.Total || got.ContentionDomain != ref.ContentionDomain {
				t.Errorf("flow %d term %d changed after mutation: %+v, want %+v", i, x, got, ref)
			}
		}
	}
}

package core_test

import (
	"fmt"
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/oracle"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// refSets is a literal transcription of the interference sets of
// Section III: pairwise route intersections through link-membership
// maps, S^D and S^I straight from their definitions, and the
// upstream/downstream partitions of S^I_i ∩ S^D_j by linear Order scans.
// It is deliberately naive — O(n²) map probes and no shared tables — and
// exists only as the oracle the production kernel (sets.go) is held to.
type refSets struct {
	sys              *traffic.System
	cd               [][]noc.Route // cd[i][j] ordered along route_i
	direct, indirect [][]int
}

func refBuildSets(sys *traffic.System) *refSets {
	n := sys.NumFlows()
	member := make([]map[noc.LinkID]bool, n)
	for i := 0; i < n; i++ {
		member[i] = make(map[noc.LinkID]bool)
		for _, l := range sys.Route(i) {
			member[i][l] = true
		}
	}
	s := &refSets{sys: sys, cd: make([][]noc.Route, n), direct: make([][]int, n), indirect: make([][]int, n)}
	for i := 0; i < n; i++ {
		s.cd[i] = make([]noc.Route, n)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			for _, l := range sys.Route(i) {
				if member[j][l] {
					s.cd[i][j] = append(s.cd[i][j], l)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j != i && sys.HigherPriority(j, i) && len(s.cd[i][j]) > 0 {
				s.direct[i] = append(s.direct[i], j)
			}
		}
	}
	for i := 0; i < n; i++ {
		inDirect := make(map[int]bool)
		for _, j := range s.direct[i] {
			inDirect[j] = true
		}
		in := make(map[int]bool)
		for _, j := range s.direct[i] {
			for _, k := range s.direct[j] {
				if k != i && !inDirect[k] {
					in[k] = true
				}
			}
		}
		for k := 0; k < n; k++ {
			if in[k] {
				s.indirect[i] = append(s.indirect[i], k)
			}
		}
	}
	return s
}

// refOrderRange returns the smallest and largest 1-based position the links
// of cd occupy along route r.
func refOrderRange(r, cd noc.Route) (lo, hi int) {
	for _, l := range cd {
		o := r.Order(l)
		if o == 0 {
			continue
		}
		if lo == 0 || o < lo {
			lo = o
		}
		if o > hi {
			hi = o
		}
	}
	return lo, hi
}

// partition returns S^upj_Ii (upstream) or S^downj_Ii: the members k of
// S^I_i ∩ S^D_j whose contention domain with τj lies wholly before or
// after cd_ij along route_j.
func (s *refSets) partition(i, j int, upstream bool) []int {
	cdij := s.cd[j][i]
	if len(cdij) == 0 {
		return nil
	}
	rj := s.sys.Route(j)
	ijLo, ijHi := refOrderRange(rj, cdij)
	var out []int
	for _, k := range s.indirect[i] {
		if !s.sys.HigherPriority(k, j) || len(s.cd[j][k]) == 0 {
			continue // k ∉ S^D_j
		}
		jkLo, jkHi := refOrderRange(rj, s.cd[j][k])
		if upstream && jkHi < ijLo || !upstream && jkLo > ijHi {
			out = append(out, k)
		}
	}
	return out
}

// clusters returns the connected components of the undirected graph
// over S^D ∪ S^I edges, each sorted, ordered by smallest member.
func (s *refSets) clusters() [][]int {
	n := len(s.direct)
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for _, js := range [][]int{s.direct[i], s.indirect[i]} {
			for _, j := range js {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var out [][]int
	for i := 0; i < n; i++ {
		if comp[i] >= 0 {
			continue
		}
		c := len(out)
		comp[i] = c
		stack := []int{i}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range adj[x] {
				if comp[y] < 0 {
					comp[y] = c
					stack = append(stack, y)
				}
			}
		}
		out = append(out, nil)
	}
	for i := 0; i < n; i++ {
		out[comp[i]] = append(out[comp[i]], i)
	}
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameRoute(a, b noc.Route) bool {
	return len(a) == len(b) && (len(a) == 0 || a.Equal(b))
}

// requireSetsMatchReference compares every public view of got against
// the reference over all ordered flow pairs: contention domains, S^D,
// S^I, the partitions (defined for j ∈ S^D_i; nil elsewhere) and the
// cluster decomposition. It stops at the first mismatch.
func requireSetsMatchReference(t *testing.T, tag string, sys *traffic.System, got *core.Sets) {
	t.Helper()
	ref := refBuildSets(sys)
	n := sys.NumFlows()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if c := got.CD(i, j); !sameRoute(c, ref.cd[i][j]) {
				t.Fatalf("%s: CD(%d,%d) = %v, reference %v", tag, i, j, c, ref.cd[i][j])
			}
		}
		if d := got.Direct(i); !sameInts(d, ref.direct[i]) {
			t.Fatalf("%s: Direct(%d) = %v, reference %v", tag, i, d, ref.direct[i])
		}
		if d := got.Indirect(i); !sameInts(d, ref.indirect[i]) {
			t.Fatalf("%s: Indirect(%d) = %v, reference %v", tag, i, d, ref.indirect[i])
		}
		isDirect := make(map[int]bool)
		for _, j := range ref.direct[i] {
			isDirect[j] = true
		}
		for j := 0; j < n; j++ {
			var wantUp, wantDown []int
			if isDirect[j] {
				wantUp, wantDown = ref.partition(i, j, true), ref.partition(i, j, false)
			}
			if up := got.Upstream(i, j); !sameInts(up, wantUp) {
				t.Fatalf("%s: Upstream(%d,%d) = %v, reference %v", tag, i, j, up, wantUp)
			}
			if down := got.Downstream(i, j); !sameInts(down, wantDown) {
				t.Fatalf("%s: Downstream(%d,%d) = %v, reference %v", tag, i, j, down, wantDown)
			}
		}
	}
	gc, rc := got.Clusters(), ref.clusters()
	if len(gc) != len(rc) {
		t.Fatalf("%s: %d clusters, reference %d", tag, len(gc), len(rc))
	}
	for c := range gc {
		if !sameInts(gc[c], rc[c]) {
			t.Fatalf("%s: cluster %d = %v, reference %v", tag, c, gc[c], rc[c])
		}
	}
}

// TestSetsMatchReferenceSynthetic holds the kernel to the reference on
// the Fig. 4(b) platform across flow-set sizes, from a single pair to a
// dense 400-flow set.
func TestSetsMatchReferenceSynthetic(t *testing.T) {
	topo := noc.MustMesh(8, 8, noc.RouterConfig{BufDepth: 2, LinkLatency: 1})
	for _, n := range []int{2, 50, 200, 400} {
		if testing.Short() && n > 200 {
			continue
		}
		for seed := int64(1); seed <= 2; seed++ {
			sys, err := workload.Synthetic(topo, workload.SynthConfig{NumFlows: n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			requireSetsMatchReference(t, fmt.Sprintf("n=%d seed=%d", n, seed), sys, core.BuildSets(sys))
		}
	}
}

// TestSetsMatchReferenceOracle covers the oracle's generated scenarios:
// small meshes, 1×N lines in both orientations, and YX routing.
func TestSetsMatchReferenceOracle(t *testing.T) {
	yx, lines := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		sc := oracle.Generate(seed, oracle.GenConfig{MaxFlows: 12})
		sys, err := sc.System()
		if err != nil {
			t.Fatal(err)
		}
		if sys.Topology().Routing() == noc.YX {
			yx++
		}
		if sc.Doc.Mesh.Width == 1 || sc.Doc.Mesh.Height == 1 {
			lines++
		}
		requireSetsMatchReference(t, fmt.Sprintf("scenario %d", seed), sys, core.BuildSets(sys))
	}
	if yx == 0 || lines == 0 {
		t.Errorf("coverage: %d YX-routed scenarios, %d 1×N lines; want both", yx, lines)
	}
}

// TestSetsMatchReferenceIncremental replays random edit chains — every
// structural kind (remap, add, remove, priority swap) among them —
// through core.Incremental and holds the engine's sets after each edit
// to the reference built from the edited system.
func TestSetsMatchReferenceIncremental(t *testing.T) {
	kinds := make(map[core.DeltaKind]int)
	for seed := int64(1); seed <= 40; seed++ {
		sys := randomSystem(t, seed, 24)
		deltas, _, err := oracle.RandomDeltas(seed, sys, 12)
		if err != nil {
			t.Fatal(err)
		}
		inc := core.NewIncremental(sys)
		for di, d := range deltas {
			if err := inc.Apply(d); err != nil {
				t.Fatalf("seed %d delta %d (%v): %v", seed, di, d, err)
			}
			kinds[d.Kind]++
			requireSetsMatchReference(t, fmt.Sprintf("seed %d after %v", seed, d), inc.System(), inc.Sets())
		}
	}
	for _, k := range []core.DeltaKind{core.DeltaMapping, core.DeltaAddFlow, core.DeltaRemoveFlow, core.DeltaPrioritySwap} {
		if kinds[k] == 0 {
			t.Errorf("no %v edit exercised", k)
		}
	}
}

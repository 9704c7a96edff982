// Package core implements the worst-case response-time analyses the
// paper studies for priority-preemptive wormhole NoCs:
//
//   - SB:   Shi & Burns (NOCS 2008) — the classic direct/indirect
//     interference analysis, shown by Xiong et al. to be optimistic
//     (unsafe) under multi-point progressive blocking (MPB).
//   - XLWX: Xiong, Wu, Lu & Xie (IEEE ToC 2017), with the interference-
//     jitter fix by Indrusiak et al. — the safe state-of-the-art baseline
//     (Equation 5 of the paper).
//   - IBN:  the paper's proposed buffer-aware analysis (Equations 6–8),
//     which bounds the interference a blocked packet can replay by the
//     buffer capacity available inside the contention domain.
//
// The package also exposes the interference-set machinery shared by the
// analyses: direct sets S^D, indirect sets S^I, and the upstream /
// downstream partitions of indirect interferers introduced by Xiong et
// al. to characterise MPB.
//
// # Concurrency
//
// An Engine is safe for concurrent use: the interference sets it wraps
// are immutable after construction, every Analyze/Explain call checks
// out a private arena from a sync.Pool, and the cumulative Telemetry is
// mutex-guarded. Analyses accept a context (AnalyzeContext) and honour
// cancellation between flows and inside the fixed-point loops, so a
// caller-imposed deadline aborts even a single pathological flow
// promptly. The long-lived serving layer (internal/serve) relies on both
// guarantees to share one warm engine per system across requests.
package core

import (
	"sort"

	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
)

// Sets holds the interference sets of a flow set, as defined in
// Section III of the paper. Build it once per system with BuildSets; it
// is immutable afterwards and safe for concurrent use.
//
// Ownership: Direct and Indirect return views of the shared tables,
// which callers must not modify; CD, Upstream and Downstream return
// fresh slices the caller owns.
type Sets struct {
	sys *traffic.System
	cd  *contention
	// direct holds every S^D, flattened: S^D_i is
	// direct[pairOffset[i]:pairOffset[i+1]], sorted by flow index. The
	// position r of j in that array is the dense rank of the direct pair
	// (j, i): the index of the pair table below and of the engine's memo
	// arenas. pairOffset[n] is the total pair count.
	direct     []int
	pairOffset []int
	// indirect holds every S^I, flattened likewise:
	// S^I_i = indirect[indirectOff[i]:indirectOff[i+1]], sorted.
	indirect    []int
	indirectOff []int32
	// The pair table, indexed by the rank r of (j, i): S^upj_Ii is
	// up[upOff[r]:upOff[r+1]] and S^downj_Ii is down[downOff[r]:…],
	// each member k ⊂ S^D_j stored as the rank of the pair (k, j) — the
	// memo key of the I^down recursion into it — in increasing k; and
	// via[r] = |S^I_i ∩ S^D_j|.
	up, down       []int32
	upOff, downOff []int32
	via            []int32
}

// contention is the route-dependent half of the interference sets: which
// flows cross each link, and the contention domain of every flow pair.
// It does not depend on priorities, so a priority reassignment shares it.
type contention struct {
	n int
	// shared counts the ordered flow pairs with a non-empty domain.
	shared int
	// linkFlows[linkOff[l]:linkOff[l+1]] are the flows whose route
	// crosses link l, in increasing index order.
	linkOff, linkFlows []int32
	// cd_ij is at[off[i*n+j]:off[i*n+j+1]]: the 1-based positions along
	// route_i of the links route_i shares with route_j, increasing. One
	// n×n offset index, row-major, into a single slab; empty when the
	// routes share no link.
	off, at []int32
}

// buildContention indexes the flows of every link, then walks each
// route_i in order, appending each link's position to cd_ij for every
// other flow j on the link — so each contention domain comes out ordered
// along route_i, at the cost of the (link, flow, flow) incidences rather
// than of n² route intersections.
func buildContention(sys *traffic.System) *contention {
	n := sys.NumFlows()
	numLinks := sys.Topology().NumLinks()
	c := &contention{n: n, linkOff: make([]int32, numLinks+1)}
	for i := 0; i < n; i++ {
		for _, l := range sys.Route(i) {
			c.linkOff[l+1]++
		}
	}
	slab := 0
	for l := 0; l < numLinks; l++ {
		f := int(c.linkOff[l+1])
		slab += f * (f - 1)
		c.linkOff[l+1] += c.linkOff[l]
	}
	c.linkFlows = make([]int32, c.linkOff[numLinks])
	fill := append([]int32(nil), c.linkOff[:numLinks]...)
	for i := 0; i < n; i++ {
		for _, l := range sys.Route(i) {
			c.linkFlows[fill[l]] = int32(i)
			fill[l]++
		}
	}

	c.off = make([]int32, n*n+1)
	c.at = make([]int32, slab)
	// Per row i: count the links route_i shares with each flow (epoch-
	// stamped, so the counters are never cleared), lay the row's domains
	// out in flow order, then walk route_i again to fill them.
	stamp := make([]int32, n)
	count := make([]int32, n)
	touched := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		ep := int32(i + 1)
		touched = touched[:0]
		route := sys.Route(i)
		for _, l := range route {
			for _, j := range c.flowsOn(l) {
				if stamp[j] != ep {
					stamp[j], count[j] = ep, 0
					touched = append(touched, j)
				}
				count[j]++
			}
		}
		count[i] = 0 // a flow has no contention domain with itself
		c.shared += len(touched) - 1
		row := c.row(i)
		for j := 0; j < n; j++ {
			row[j+1] = row[j]
			if stamp[j] == ep {
				row[j+1] += count[j]
			}
		}
		for _, j := range touched {
			count[j] = row[j] // now the fill cursor
		}
		for p, l := range route {
			for _, j := range c.flowsOn(l) {
				if int(j) != i {
					c.at[count[j]] = int32(p + 1)
					count[j]++
				}
			}
		}
	}
	return c
}

// flowsOn returns the flows crossing link l.
func (c *contention) flowsOn(l noc.LinkID) []int32 {
	return c.linkFlows[c.linkOff[l]:c.linkOff[l+1]]
}

// seg returns the positions of cd_ij along route_i.
func (c *contention) seg(i, j int) []int32 {
	p := i*c.n + j
	return c.at[c.off[p]:c.off[p+1]]
}

// extent returns the first and last position of cd_ij along route_i;
// cd_ij must be non-empty.
func (c *contention) extent(i, j int) (lo, hi int32) {
	p := i*c.n + j
	return c.at[c.off[p]], c.at[c.off[p+1]-1]
}

// row returns the offsets of row i: cd_ij is empty exactly when
// row[j+1] == row[j].
func (c *contention) row(i int) []int32 { return c.off[i*c.n : (i+1)*c.n+1] }

// size returns |cd_ij|.
func (c *contention) size(i, j int) int {
	p := i*c.n + j
	return int(c.off[p+1] - c.off[p])
}

// BuildSets computes contention domains and the direct/indirect
// interference sets for every flow of the system.
func BuildSets(sys *traffic.System) *Sets {
	return deriveSets(sys, buildContention(sys))
}

// deriveSets computes the priority-dependent structures (direct and
// indirect sets, pair ranks, the pair table) over the contention domains
// of sys's routes. Priority reassignments reuse c wholesale; every other
// structural edit rebuilds it, which costs less than deriving the sets.
func deriveSets(sys *traffic.System, c *contention) *Sets {
	n := sys.NumFlows()
	prio := make([]int, n)
	for i, f := range sys.Flows() {
		prio[i] = f.Priority
	}
	// Priorities are unique, so exactly one flow of each sharing pair
	// directly interferes with the other.
	s := &Sets{
		sys: sys, cd: c,
		direct:      make([]int, 0, c.shared/2),
		pairOffset:  make([]int, n+1),
		indirectOff: make([]int32, n+1),
	}
	for i := 0; i < n; i++ {
		row := c.row(i)
		for j := 0; j < n; j++ {
			if row[j+1] > row[j] && prio[j] < prio[i] {
				s.direct = append(s.direct, j)
			}
		}
		s.pairOffset[i+1] = len(s.direct)
	}

	// lo/hi hold the extent of every direct pair's contention domain
	// along the lower-priority route.
	p := len(s.direct)
	lo, hi := make([]int32, p), make([]int32, p)
	for i := 0; i < n; i++ {
		for r := s.pairOffset[i]; r < s.pairOffset[i+1]; r++ {
			lo[r], hi[r] = c.extent(i, s.direct[r])
		}
	}
	// One pass over the triples i, j ∈ S^D_i, k ∈ S^D_j derives S^I and
	// the pair table. Every k ∈ S^D_j outranks j and hence τi, so k is in
	// S^D_i exactly when it shares a link with τi, and
	//
	//	S^I_i ∩ S^D_j = {k ∈ S^D_j : cd_ik = ∅},  S^I_i = ∪_j S^I_i ∩ S^D_j.
	//
	// Each such k is then placed upstream or downstream of cd_ij by where
	// cd_jk (pair q) lies along route_j. seen is epoch-stamped.
	s.upOff, s.downOff, s.via = make([]int32, p+1), make([]int32, p+1), make([]int32, p)
	seen := make([]int, n)
	for i := 0; i < n; i++ {
		ep, row, count := i+1, c.row(i), 0
		for r := s.pairOffset[i]; r < s.pairOffset[i+1]; r++ {
			j := s.direct[r]
			ijLo, ijHi := c.extent(j, i)
			via := int32(0)
			for q := s.pairOffset[j]; q < s.pairOffset[j+1]; q++ {
				k := s.direct[q]
				if row[k+1] > row[k] {
					continue // k ∈ S^D_i
				}
				via++
				if seen[k] != ep {
					seen[k] = ep
					count++
				}
				switch {
				case hi[q] < ijLo:
					s.up = append(s.up, int32(q))
				case lo[q] > ijHi:
					s.down = append(s.down, int32(q))
				}
			}
			s.via[r] = via
			s.upOff[r+1], s.downOff[r+1] = int32(len(s.up)), int32(len(s.down))
		}
		for k := 0; count > 0; k++ {
			if seen[k] == ep {
				s.indirect = append(s.indirect, k)
				count--
			}
		}
		s.indirectOff[i+1] = int32(len(s.indirect))
	}
	return s
}

// rebind returns a view of the sets over sys. Only valid when sys has
// the same routes and priorities as the original system (parameter-only
// edits: period, deadline, jitter, payload, buffer depth), in which case
// every derived structure is route- and priority-identical.
func (s *Sets) rebind(sys *traffic.System) *Sets {
	c := *s
	c.sys = sys
	return &c
}

// withPriorities re-derives the priority-dependent structures over sys,
// reusing the contention domains (routes unchanged).
func (s *Sets) withPriorities(sys *traffic.System) *Sets {
	return deriveSets(sys, s.cd)
}

// dependencyEdges calls fn(i, j) for every dependency edge of the
// interference graph: j ∈ S^D_i ∪ S^I_i, i.e. flow i's bound depends on
// flow j's parameters. This is the single derivation of the graph that
// both consumers share: the incremental engine's reverse-reachability
// frontier (reverseReach) walks the edges backwards, and Clusters takes
// their undirected closure — so a future change to what counts as a
// dependency cannot desynchronise the two.
func (s *Sets) dependencyEdges(fn func(i, j int)) {
	for i := 0; i < s.cd.n; i++ {
		for _, j := range s.Direct(i) {
			fn(i, j)
		}
		for _, j := range s.Indirect(i) {
			fn(i, j)
		}
	}
}

// Clusters returns the connected components of the interference graph
// over S^D ∪ S^I: flows i and j land in the same cluster exactly when a
// chain of dependency edges links them. Flows in different clusters
// share no links with each other — directly or transitively — so
// nothing couples them in either the analyses or the simulator: link
// arbitration involves only the flows routed over the link, and
// credit-based flow control only couples flows through shared links.
// The explicit-state backend (internal/exhaustive) exploits this to
// factorise its phasing grid into one independent sub-exploration per
// cluster.
//
// Each cluster is sorted by flow index and the clusters themselves are
// ordered by their smallest member, so the decomposition is
// deterministic. Flows with no dependency edges form singleton
// clusters.
func (s *Sets) Clusters() [][]int {
	n := s.cd.n
	// Union-find over flow indices; dependency edges are the union ops.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	s.dependencyEdges(func(i, j int) {
		ri, rj := find(i), find(j)
		if ri != rj {
			if ri < rj {
				parent[rj] = ri
			} else {
				parent[ri] = rj
			}
		}
	})
	// Roots are canonical smallest members, so grouping by root and
	// appending in index order yields the documented ordering.
	byRoot := make(map[int][]int, n)
	roots := make([]int, 0, n)
	for i := 0; i < n; i++ {
		r := find(i)
		if _, ok := byRoot[r]; !ok {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], i)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}

// numPairs returns the total number of (direct interferer, flow) pairs —
// the size of the engine's memo arenas and of the pair table.
func (s *Sets) numPairs() int { return len(s.direct) }

// rank returns the dense rank of the pair (j, i) and whether j ∈ S^D_i.
func (s *Sets) rank(j, i int) (int, bool) {
	d := s.Direct(i)
	k := sort.SearchInts(d, j)
	return s.pairOffset[i] + k, k < len(d) && d[k] == j
}

// pairRank maps a memo key (j, i), with j a direct interferer of τi, to
// its dense rank in [0, numPairs()).
func (s *Sets) pairRank(j, i int) int {
	r, ok := s.rank(j, i)
	if !ok {
		panic("core: memo key is not a direct-interference pair")
	}
	return r
}

// downstream returns S^downj_Ii for the pair (j, i) of rank r, as the
// ranks of the pairs (k, j) (shared storage).
func (s *Sets) downstream(r int) []int32 { return s.down[s.downOff[r]:s.downOff[r+1]] }

// hasUpstream reports whether S^upj_Ii is non-empty for the pair of rank r.
func (s *Sets) hasUpstream(r int) bool { return s.upOff[r+1] > s.upOff[r] }

// hasIndirectVia reports whether S^I_i ∩ S^D_j is non-empty for the pair
// of rank r, i.e. whether τj can pass indirect interference on to τi.
func (s *Sets) hasIndirectVia(r int) bool { return s.via[r] > 0 }

// CD returns the contention domain cd_ij (links shared by route_i and
// route_j), ordered along route_i. The result is nil when the flows do
// not share links. The caller owns the returned slice.
func (s *Sets) CD(i, j int) noc.Route {
	seg := s.cd.seg(i, j)
	if len(seg) == 0 {
		return nil
	}
	route := s.sys.Route(i)
	out := make(noc.Route, len(seg))
	for x, p := range seg {
		out[x] = route[p-1]
	}
	return out
}

// Direct returns S^D_i, the direct interference set of flow i: every
// flow with a higher priority and a non-empty contention domain with τi.
// The returned slice must not be modified.
func (s *Sets) Direct(i int) []int {
	a, b := s.pairOffset[i], s.pairOffset[i+1]
	return s.direct[a:b:b]
}

// Indirect returns S^I_i, the indirect interference set of flow i: flows
// that interfere with a member of S^D_i but not with τi itself. The
// returned slice must not be modified.
func (s *Sets) Indirect(i int) []int {
	a, b := s.indirectOff[i], s.indirectOff[i+1]
	return s.indirect[a:b:b]
}

// Upstream returns S^upj_Ii: the flows τk ∈ S^I_i ∩ S^D_j whose
// contention domain with τj lies strictly upstream (along route_j) of
// cd_ij, i.e. order(last(cd_jk), route_j) < order(first(cd_ij), route_j).
// Such flows delay τj before it reaches the links it shares with τi.
// The partition is defined for τj ∈ S^D_i; it is nil for any other j.
// The caller owns the returned slice.
func (s *Sets) Upstream(i, j int) []int { return s.partition(s.up, s.upOff, i, j) }

// Downstream returns S^downj_Ii: the flows τk ∈ S^I_i ∩ S^D_j whose
// contention domain with τj lies strictly downstream (along route_j) of
// cd_ij, i.e. order(first(cd_jk), route_j) > order(last(cd_ij), route_j).
// Such flows block τj after it has passed τi's links — the trigger of
// multi-point progressive blocking. The partition is defined for
// τj ∈ S^D_i; it is nil for any other j. The caller owns the returned
// slice.
func (s *Sets) Downstream(i, j int) []int { return s.partition(s.down, s.downOff, i, j) }

// partition copies one side of the pair table's partition for (j, i).
func (s *Sets) partition(list, off []int32, i, j int) []int {
	r, ok := s.rank(j, i)
	if !ok || off[r] == off[r+1] {
		return nil
	}
	out := make([]int, 0, off[r+1]-off[r])
	for _, q := range list[off[r]:off[r+1]] {
		out = append(out, s.direct[q])
	}
	return out
}

// BufferedInterference evaluates Equation 6 of the paper: the maximum
// buffered interference bi_ij that a single downstream hit on τj can
// replay onto τi, bounded by the buffer capacity inside their contention
// domain,
//
//	bi_ij = buf(Ξ) · linkl(Ξ) · |cd_ij|
//
// bufDepth overrides buf(Ξ) when > 0 (used to compare buffer sizes
// without rebuilding the platform).
func (s *Sets) BufferedInterference(i, j, bufDepth int) noc.Cycles {
	cfg := s.sys.Topology().Config()
	buf := cfg.BufDepth
	if bufDepth > 0 {
		buf = bufDepth
	}
	return noc.SatMul(noc.SatMul(noc.Cycles(buf), cfg.LinkLatency), noc.Cycles(s.cd.size(i, j)))
}

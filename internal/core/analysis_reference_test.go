package core_test

import (
	"context"
	"fmt"
	"testing"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/oracle"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// refAnalysis is a literal transcription of the four analyses, read off
// the equations and the doc comments of analysis.go, blocking.go and
// sla.go. It runs over refSets (sets_reference_test.go) by plain
// recursion: no arenas, no memos, no pair ranks and no frontiers. It
// exists only as the oracle the production engine, the incremental
// engine and Explain are held to.
type refAnalysis struct {
	sys    *traffic.System
	sets   *refSets
	opt    core.Options
	R      []noc.Cycles
	status []core.FlowStatus
}

// refCeil is ceil(a/b) for a >= 0, b > 0; a saturated window stays
// unbounded.
func refCeil(a, b noc.Cycles) noc.Cycles {
	if a == noc.MaxCycles {
		return noc.MaxCycles
	}
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}

// refAnalyze analyses every flow from highest to lowest priority.
func refAnalyze(sys *traffic.System, opt core.Options) *refAnalysis {
	if opt.MaxIterations <= 0 {
		opt.MaxIterations = core.DefaultMaxIterations
	}
	n := sys.NumFlows()
	a := &refAnalysis{
		sys: sys, sets: refBuildSets(sys), opt: opt,
		R: make([]noc.Cycles, n), status: make([]core.FlowStatus, n),
	}
	for _, i := range sys.ByPriority() {
		a.flow(i)
	}
	return a
}

// bound returns R_j when τj is schedulable; a bound built on any other
// outcome is meaningless.
func (a *refAnalysis) bound(j int) (noc.Cycles, bool) {
	return a.R[j], a.status[j] == core.Schedulable
}

// indirectVia reports S^I_i ∩ S^D_j ≠ ∅: τj suffers interference from a
// flow indirect to τi (SB's back-to-back hit condition).
func (a *refAnalysis) indirectVia(i, j int) bool {
	for _, k := range a.sets.indirect[i] {
		for _, d := range a.sets.direct[j] {
			if d == k {
				return true
			}
		}
	}
	return false
}

// bufDepth is buf(Ξ), or the Options override when set.
func (a *refAnalysis) bufDepth() noc.Cycles {
	if a.opt.BufDepth > 0 {
		return noc.Cycles(a.opt.BufDepth)
	}
	return noc.Cycles(a.sys.Topology().Config().BufDepth)
}

// idownXLWX is Equation 3: every τk ∈ S^downj_Ii hits τj
// ceil((R_j + J_k + JI_k)/T_k) times, with JI_k = R_k − C_k, each hit
// costing C_k + I^down_kj.
func (a *refAnalysis) idownXLWX(j, i int) (noc.Cycles, bool) {
	rj, ok := a.bound(j)
	if !ok {
		return 0, false
	}
	var sum noc.Cycles
	for _, k := range a.sets.partition(i, j, false) {
		rk, ok := a.bound(k)
		if !ok {
			return 0, false
		}
		inner, ok := a.idownXLWX(k, j)
		if !ok {
			return 0, false
		}
		fk := a.sys.Flow(k)
		hits := refCeil(noc.SatAdd(noc.SatAdd(rj, fk.Jitter), rk-a.sys.C(k)), fk.Period)
		sum = noc.SatAdd(sum, noc.SatMul(hits, noc.SatAdd(a.sys.C(k), inner)))
	}
	return sum, true
}

// idownIBN is Equations 6–8: each τk ∈ S^downj_Ii hits τj
// ceil((R_j + J_k)/T_k) times, each hit costing
// min(bi_ij, C_k + I^down_kj) with bi_ij = buf·linkl·|cd_ij| (Eq. 6), or
// bi_ij alone under Eq7. When S^upj_Ii is non-empty (and the fallback is
// on), the pair falls back to Equation 3.
func (a *refAnalysis) idownIBN(j, i int) (noc.Cycles, bool) {
	if !a.opt.NoUpstreamFallback && len(a.sets.partition(i, j, true)) > 0 {
		return a.idownXLWX(j, i)
	}
	rj, ok := a.bound(j)
	if !ok {
		return 0, false
	}
	linkl := a.sys.Topology().Config().LinkLatency
	bi := noc.SatMul(noc.SatMul(a.bufDepth(), linkl), noc.Cycles(len(a.sets.cd[i][j])))
	var sum noc.Cycles
	for _, k := range a.sets.partition(i, j, false) {
		perHit := bi
		if !a.opt.Eq7 {
			inner, ok := a.idownIBN(k, j)
			if !ok {
				return 0, false
			}
			if alt := noc.SatAdd(a.sys.C(k), inner); alt < perHit {
				perHit = alt
			}
		}
		fk := a.sys.Flow(k)
		sum = noc.SatAdd(sum, noc.SatMul(refCeil(noc.SatAdd(rj, fk.Jitter), fk.Period), perHit))
	}
	return sum, true
}

// term prices τj's hits on τi: the jitter entering the hit count and the
// cost of one hit.
//
//   - SB: J_j, plus JI_j = R_j − C_j only when S^I_i ∩ S^D_j ≠ ∅; each
//     hit costs C_j.
//   - SLA: SB's jitter; each hit costs
//     C_j − min((buf−1)·linkl·|cd_ij|, C_j − linkl·L_j), saving ≥ 0.
//   - XLWX (Eq. 5) and IBN: J_j + JI_j; each hit costs C_j + I^down_ji.
func (a *refAnalysis) term(i, j int) (jitter, hit noc.Cycles, ok bool) {
	fj, cj := a.sys.Flow(j), a.sys.C(j)
	switch a.opt.Method {
	case core.SB, core.SLA:
		jitter = fj.Jitter
		if a.indirectVia(i, j) {
			jitter = noc.SatAdd(jitter, a.R[j]-cj)
		}
		if a.opt.Method == core.SB {
			return jitter, cj, true
		}
		linkl := a.sys.Topology().Config().LinkLatency
		saving := noc.SatMul(noc.SatMul(a.bufDepth()-1, linkl), noc.Cycles(len(a.sets.cd[i][j])))
		if floor := cj - linkl*noc.Cycles(fj.Length); saving > floor {
			saving = floor
		}
		if saving < 0 {
			saving = 0
		}
		return jitter, cj - saving, true
	case core.XLWX, core.IBN:
		idown, ok := a.idownXLWX(j, i)
		if a.opt.Method == core.IBN {
			idown, ok = a.idownIBN(j, i)
		}
		if !ok {
			return 0, 0, false
		}
		return noc.SatAdd(fj.Jitter, a.R[j]-cj), noc.SatAdd(cj, idown), true
	}
	panic("reference: unknown method")
}

// blockPerEpisode is (linkl−1)·sharedLow_i: the links of route_i that
// some lower-priority flow also crosses, each able to hold τi behind a
// partial flit transfer. Zero on single-cycle links.
func (a *refAnalysis) blockPerEpisode(i int) noc.Cycles {
	linkl := a.sys.Topology().Config().LinkLatency
	if linkl <= 1 {
		return 0
	}
	shared := 0
	for _, l := range a.sys.Route(i) {
		for m := 0; m < a.sys.NumFlows(); m++ {
			if m != i && a.sys.HigherPriority(i, m) && refRouteHas(a.sets.cd[i][m], l) {
				shared++
				break
			}
		}
	}
	return noc.SatMul(linkl-1, noc.Cycles(shared))
}

func refRouteHas(r noc.Route, l noc.LinkID) bool {
	for _, x := range r {
		if x == l {
			return true
		}
	}
	return false
}

// replays is Σ_{k ∈ S^downj_Ii} ceil((R_j + J_k)/T_k): the stop-and-go
// episodes of τj's buffered flits.
func (a *refAnalysis) replays(i, j int) noc.Cycles {
	var n noc.Cycles
	for _, k := range a.sets.partition(i, j, false) {
		fk := a.sys.Flow(k)
		n = noc.SatAdd(n, refCeil(noc.SatAdd(a.R[j], fk.Jitter), fk.Period))
	}
	return n
}

// refTerm is one direct interferer's priced contribution.
type refTerm struct {
	j                    int
	jitter, hit, replays noc.Cycles
}

// terms prices every direct interferer of τi, or reports a dependency
// on an unschedulable flow.
func (a *refAnalysis) terms(i int) ([]refTerm, bool) {
	var out []refTerm
	for _, j := range a.sets.direct[i] {
		if a.status[j] != core.Schedulable {
			return nil, false
		}
		jitter, hit, ok := a.term(i, j)
		if !ok {
			return nil, false
		}
		out = append(out, refTerm{j: j, jitter: jitter, hit: hit, replays: a.replays(i, j)})
	}
	return out, true
}

// eval is the right-hand side of the fixed point at window r:
// C_i + Σ_j ceil((r + jitter_j)/T_j)·hit_j + B_i(r), and B_i(r) alone.
func (a *refAnalysis) eval(i int, ts []refTerm, r noc.Cycles) (total, blocking noc.Cycles) {
	total = a.sys.C(i)
	episodes := noc.Cycles(1)
	for _, t := range ts {
		hits := refCeil(noc.SatAdd(r, t.jitter), a.sys.Flow(t.j).Period)
		total = noc.SatAdd(total, noc.SatMul(hits, t.hit))
		episodes = noc.SatAdd(episodes, noc.SatMul(hits, noc.SatAdd(1, t.replays)))
	}
	blocking = noc.SatMul(a.blockPerEpisode(i), episodes)
	return noc.SatAdd(total, blocking), blocking
}

// flow iterates τi's response time from C_i to its least fixed point.
func (a *refAnalysis) flow(i int) {
	ts, ok := a.terms(i)
	if !ok {
		a.status[i] = core.DependencyFailed
		return
	}
	deadline := a.sys.Flow(i).Deadline
	r := a.sys.C(i)
	for iter := 0; ; iter++ {
		next, _ := a.eval(i, ts, r)
		switch {
		case next == noc.MaxCycles:
			a.R[i], a.status[i] = next, core.Diverged
		case next == r && r > deadline:
			a.R[i], a.status[i] = r, core.DeadlineMiss
		case next == r:
			a.R[i], a.status[i] = r, core.Schedulable
		case next > deadline:
			a.R[i], a.status[i] = next, core.DeadlineMiss
		case iter >= a.opt.MaxIterations:
			a.R[i], a.status[i] = next, core.Diverged
		default:
			r = next
			continue
		}
		return
	}
}

// explain returns Σ Total and the blocking term of τi's breakdown at its
// final bound; both are zero for a dependency failure.
func (a *refAnalysis) explain(i int) (sum, blocking noc.Cycles) {
	if a.status[i] == core.DependencyFailed {
		return 0, 0
	}
	ts, _ := a.terms(i)
	for _, t := range ts {
		sum = noc.SatAdd(sum, noc.SatMul(refCeil(noc.SatAdd(a.R[i], t.jitter), a.sys.Flow(t.j).Period), t.hit))
	}
	_, blocking = a.eval(i, ts, a.R[i])
	return sum, blocking
}

// refOptions is the configuration matrix the reference is checked
// under: every method, both buffer settings, and the IBN ablations.
var refOptions = []core.Options{
	{Method: core.SB},
	{Method: core.SLA},
	{Method: core.SLA, BufDepth: 4},
	{Method: core.XLWX},
	{Method: core.IBN},
	{Method: core.IBN, BufDepth: 4},
	{Method: core.IBN, Eq7: true},
	{Method: core.IBN, NoUpstreamFallback: true},
}

func optTag(opt core.Options) string {
	return fmt.Sprintf("%v/buf=%d/eq7=%v/noup=%v", opt.Method, opt.BufDepth, opt.Eq7, opt.NoUpstreamFallback)
}

// requireMatchesReference fails unless got carries the reference's R and
// status for every flow.
func requireMatchesReference(t *testing.T, tag string, got *core.Result, ref *refAnalysis) {
	t.Helper()
	if len(got.Flows) != len(ref.R) {
		t.Fatalf("%s: %d flows, reference %d", tag, len(got.Flows), len(ref.R))
	}
	sched := true
	for i, fr := range got.Flows {
		if fr.R != ref.R[i] || fr.Status != ref.status[i] {
			t.Fatalf("%s flow %d: got R=%d %v, reference R=%d %v", tag, i, fr.R, fr.Status, ref.R[i], ref.status[i])
		}
		sched = sched && ref.status[i] == core.Schedulable
	}
	if got.Schedulable != sched {
		t.Fatalf("%s: Schedulable = %v, reference %v", tag, got.Schedulable, sched)
	}
}

// checkEngineAgainstReference holds Engine.Analyze and, per flow,
// Engine.Explain's R, Σ Total and blocking term to the reference.
func checkEngineAgainstReference(t *testing.T, tag string, sys *traffic.System) {
	t.Helper()
	eng := core.NewEngine(sys)
	for _, opt := range refOptions {
		ref := refAnalyze(sys, opt)
		otag := tag + " " + optTag(opt)
		res, err := eng.Analyze(opt)
		if err != nil {
			t.Fatalf("%s: %v", otag, err)
		}
		requireMatchesReference(t, otag, res, ref)
		for i := 0; i < sys.NumFlows(); i++ {
			b, err := eng.Explain(opt, i)
			if err != nil {
				t.Fatalf("%s explain %d: %v", otag, i, err)
			}
			var sum noc.Cycles
			for _, term := range b.Terms {
				sum = noc.SatAdd(sum, term.Total)
			}
			wantSum, wantBlock := ref.explain(i)
			if b.R != ref.R[i] || b.Status != ref.status[i] || sum != wantSum || b.Blocking != wantBlock {
				t.Fatalf("%s explain flow %d: R=%d %v Σ=%d B=%d, reference R=%d %v Σ=%d B=%d",
					otag, i, b.R, b.Status, sum, b.Blocking, ref.R[i], ref.status[i], wantSum, wantBlock)
			}
		}
	}
}

// mpbChainSystem is the SB-optimism system pinned by a complete
// exhaustive proof in internal/exhaustive: τk 2→3, τj 0→3 and τi 0→2 on
// a 1×4 line with 3-flit buffers.
func mpbChainSystem() *traffic.System {
	return traffic.MustSystem(noc.MustMesh(4, 1, noc.RouterConfig{BufDepth: 3, LinkLatency: 1}), []traffic.Flow{
		{Name: "k", Priority: 1, Period: 48, Deadline: 48, Length: 7, Src: 2, Dst: 3},
		{Name: "j", Priority: 2, Period: 48, Deadline: 48, Length: 10, Src: 0, Dst: 3},
		{Name: "i", Priority: 3, Period: 24, Deadline: 24, Length: 5, Src: 0, Dst: 2},
	})
}

// TestAnalysisMatchesReferencePinned checks the systems whose bounds
// are pinned elsewhere: the paper's Table II, the 2-cycle-link goldens
// and the exhaustively proven MPB chain.
func TestAnalysisMatchesReferencePinned(t *testing.T) {
	systems := linkl2Systems(t)
	systems["table2-buf2"] = workload.Didactic(2)
	systems["table2-buf10"] = workload.Didactic(10)
	systems["mpb-chain"] = mpbChainSystem()
	for name, sys := range systems {
		checkEngineAgainstReference(t, name, sys)
	}
	// The reference reproduces the paper's Table II numbers on its own.
	for _, c := range []struct {
		buf   int
		opt   core.Options
		rTau3 noc.Cycles
	}{{2, core.Options{Method: core.SB}, 336}, {2, core.Options{Method: core.XLWX}, 460}, {2, core.Options{Method: core.IBN}, 348}} {
		if r := refAnalyze(workload.Didactic(c.buf), c.opt).R[2]; r != c.rTau3 {
			t.Errorf("reference %v: R(τ3) = %d, want %d", c.opt.Method, r, c.rTau3)
		}
	}
}

// TestAnalysisMatchesReferenceOracle checks the default oracle
// scenarios: small meshes and lines, XY and YX routing, 1–2-cycle links,
// release jitter and buffers from 1 to 16 flits.
func TestAnalysisMatchesReferenceOracle(t *testing.T) {
	mpb := 0
	for seed := int64(1); seed <= 300; seed++ {
		sys, err := oracle.Generate(seed, oracle.GenConfig{}).System()
		if err != nil {
			t.Fatal(err)
		}
		rs := refBuildSets(sys)
		for i := 0; i < sys.NumFlows(); i++ {
			for _, j := range rs.direct[i] {
				if len(rs.partition(i, j, false)) > 0 {
					mpb++
				}
			}
		}
		checkEngineAgainstReference(t, fmt.Sprintf("scenario %d", seed), sys)
	}
	if mpb == 0 {
		t.Error("coverage: no direct pair with a non-empty S^down; the I^down terms went unchecked")
	}
}

// TestIncrementalMatchesReference replays oracle edit chains through
// core.Incremental and holds every step's result to the reference
// analysis of the edited system.
func TestIncrementalMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		sys, err := oracle.Generate(seed, oracle.GenConfig{}).System()
		if err != nil {
			t.Fatal(err)
		}
		deltas, _, err := oracle.RandomDeltas(seed, sys, 8)
		if err != nil {
			t.Fatal(err)
		}
		inc := core.NewIncremental(sys)
		check := func(tag string) {
			t.Helper()
			for _, opt := range refOptions {
				res, err := inc.Analyze(context.Background(), opt)
				if err != nil {
					t.Fatalf("%s %s: %v", tag, optTag(opt), err)
				}
				requireMatchesReference(t, tag+" "+optTag(opt), res, refAnalyze(inc.System(), opt))
			}
		}
		check(fmt.Sprintf("seed %d base", seed))
		for di, d := range deltas {
			if err := inc.Apply(d); err != nil {
				t.Fatalf("seed %d delta %d (%v): %v", seed, di, d, err)
			}
			check(fmt.Sprintf("seed %d after %v", seed, d))
		}
	}
}

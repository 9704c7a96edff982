package core

import (
	"wormnoc/internal/noc"
)

// Non-preemptive flit-transfer blocking (multi-cycle links).
//
// The paper — like the SB/SLA/XLWX literature it builds on — evaluates
// single-cycle links (linkl(Ξ) = 1), where link arbitration happens every
// cycle and higher-priority packets preempt at flit boundaries with zero
// residual cost. With linkl(Ξ) > 1 a flit transfer is atomic: a packet
// that wants a link currently carrying a LOWER-priority flit must wait
// for up to linkl−1 cycles — blocking that none of the published
// interference terms account for (our own adversarial validation caught
// the analyses being one cycle optimistic on 2-cycle links before this
// term existed).
//
// The term charged here is deliberately conservative: a packet can wait
// behind a partial lower-priority transfer once per "resume" of its
// pipeline at each route link that any lower-priority flow crosses.
// Resumes happen at the initial traversal and after every interference
// episode; episodes are bounded by the direct hits plus, for each direct
// interferer τj, the downstream hits that make τj's buffered flits
// replay (the MPB stop-and-go):
//
//	B_i(R) = (linkl−1) · sharedLow_i · (1 + Σ_j hits_j(R)·(1 + replays_j))
//
// where sharedLow_i counts links of route_i shared with at least one
// lower-priority flow and replays_j = Σ_{k ∈ S^downj_Ii} ceil((R_j+J_k)/T_k).
// For linkl = 1 the term is identically zero, so every result of the
// paper is unaffected.

// sharedLowLinks counts the links of route_i also used by at least one
// lower-priority flow — the links where a partial lower-priority flit
// transfer can make τi wait.
func (a *analyzer) sharedLowLinks(i int) int {
	shared := 0
	for _, l := range a.sys.Route(i) {
		for _, m := range a.sets.cd.flowsOn(l) {
			if a.sys.HigherPriority(i, int(m)) {
				shared++
				break
			}
		}
	}
	return shared
}

// replayEpisodes bounds the number of stop-and-go replays of direct
// interferer τj relevant to τi: the downstream hits τj suffers during
// its own response time.
func (a *analyzer) replayEpisodes(i, j int) (noc.Cycles, error) {
	rj, err := a.requireR(j)
	if err != nil {
		return 0, err
	}
	var episodes noc.Cycles
	for _, q := range a.sets.downstream(a.sets.pairRank(j, i)) {
		fk := a.sys.Flow(a.sets.direct[q])
		episodes = noc.SatAdd(episodes, ceilDiv(noc.SatAdd(rj, fk.Jitter), fk.Period))
	}
	return episodes, nil
}

package core

import (
	"wormnoc/internal/noc"
)

// SLA-style stage-level refinement.
//
// Kashif and Patel's SLA (IEEE ToC 2015) reduces SB's pessimism by
// analysing interference link by link: while a higher-priority packet τj
// occupies the links it shares with τi, τi's flits can still make
// progress into the virtual-channel buffers of the routers along the
// contention domain, progress that does not have to be repeated once τj
// clears. The paper under reproduction characterises SLA by three
// properties (Section III):
//
//  1. its bounds equal SB's with minimal buffer sizes,
//  2. they get increasingly tighter with larger per-VC buffers,
//  3. like SB, it is UNSAFE under multi-point progressive blocking.
//
// This file implements a simplified stage-level analysis with exactly
// those properties (the full SLA algorithm is considerably more
// intricate; since the paper only discusses it qualitatively, we
// reproduce its documented behaviour rather than its full machinery):
// each hit of τj costs C_j minus the overlap τi can buffer,
//
//	hit_j = C_j − min((buf−1)·linkl·|cd_ij|, C_j − linkl·L_j)
//
// i.e. up to buf−1 flits of progress per contention-domain router, never
// below the time τj's payload needs to stream through a shared link.
// At buf = 1 the saving is zero and the analysis degenerates to SB
// exactly. Like SB it accounts no buffered-interference replay, so MPB
// scenarios break it — the didactic example's simulated worst case
// (350 at buf = 10, 334 at buf = 2) exceeds the SLA bounds (330, 333),
// which the test suite demonstrates.
//
// Use it only as a historic baseline, never for real guarantees.

// slaHit returns the per-hit interference of direct interferer j on flow
// i under the stage-level refinement.
func (a *analyzer) slaHit(i, j int) noc.Cycles {
	cfg := a.sys.Topology().Config()
	buf := cfg.BufDepth
	if a.opt.BufDepth > 0 {
		buf = a.opt.BufDepth
	}
	cj := a.sys.C(j)
	saving := noc.SatMul(noc.SatMul(noc.Cycles(buf-1), cfg.LinkLatency), noc.Cycles(a.sets.cd.size(i, j)))
	if floor := cj - cfg.LinkLatency*noc.Cycles(a.sys.Flow(j).Length); saving > floor {
		saving = floor
	}
	if saving < 0 {
		saving = 0
	}
	return cj - saving
}

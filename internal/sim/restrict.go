package sim

import (
	"fmt"

	"wormnoc/internal/traffic"
)

// Restrict builds the sub-System of sys containing exactly the flows
// whose (original) indices appear in keep, in the order given, bound to
// the same topology. It is the spec-construction half of the exhaustive
// backend's contention-cluster decomposition (internal/exhaustive,
// DESIGN.md §15): when keep is closed under interference — no kept flow
// shares a link, directly or transitively, with a dropped one — the
// restricted system's trajectory is bit-identical to the kept flows'
// slice of the full system's trajectory at the same Duration and
// (projected) Offsets.
//
// The exactness argument is structural, not statistical. The engine's
// state decomposes per link and per virtual channel: a flit moves only
// by winning arbitration on a link of its own route against candidates
// routed on that link, and credits are per-VC, where VC identity is the
// flow's priority. A flow therefore influences another only through a
// shared link, so influence is confined to the connected component of
// the link-sharing graph — exactly the S^D ∪ S^I component structure
// (core.Sets.Clusters). Dropping every flow outside the component
// removes no candidate from any arbitration the kept flows ever face.
//
// SearchWorstCase restricts its probes to the target's component on
// multi-cycle links, and on single-cycle links to a weaker closure, the
// target's influence set, closed under higher-priority flows sharing a
// link. With jitter injected its restricted runs also replay the
// dropped flows' draws from the shared jitter stream, which a plain run
// of the restricted system would shift (DESIGN.md §10,
// "Influence-restricted searches").
//
// Restrict validates that keep is non-empty, in range and duplicate
// free, but deliberately does not verify interference-closure: callers
// exploring reduced state spaces check closure via core.Sets.Clusters,
// while differential tests call Restrict on deliberately open sets to
// prove the closure precondition is load-bearing.
func Restrict(sys *traffic.System, keep []int) (*traffic.System, error) {
	if len(keep) == 0 {
		return nil, fmt.Errorf("sim: restrict: empty flow subset")
	}
	n := sys.NumFlows()
	seen := make(map[int]bool, len(keep))
	flows := make([]traffic.Flow, len(keep))
	for k, i := range keep {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("sim: restrict: flow index %d out of range [0,%d)", i, n)
		}
		if seen[i] {
			return nil, fmt.Errorf("sim: restrict: duplicate flow index %d", i)
		}
		seen[i] = true
		flows[k] = sys.Flow(i)
	}
	sub, err := traffic.NewSystem(sys.Topology(), flows)
	if err != nil {
		return nil, fmt.Errorf("sim: restrict: %w", err)
	}
	return sub, nil
}

package core

import (
	"context"
	"fmt"
	"strings"

	"wormnoc/internal/noc"
)

// InterferenceTerm explains the contribution of one direct interferer τj
// to a flow's response-time bound.
type InterferenceTerm struct {
	// Interferer is the flow index of τj.
	Interferer int
	// Hits is the number of interference hits of τj at the fixed point,
	// ceil((R + J_j + JI_j)/T_j).
	Hits noc.Cycles
	// Jitter is the jitter term used in the hit count (J_j, plus the
	// interference jitter JI_j = R_j − C_j where the analysis applies it).
	Jitter noc.Cycles
	// Cj is τj's zero-load latency (the classic per-hit cost).
	Cj noc.Cycles
	// IDown is the downstream indirect interference I^down_{ji} added to
	// every hit (zero under SB and SLA).
	IDown noc.Cycles
	// PerHit is the cost of one hit: Cj + IDown (SB/XLWX/IBN) or the
	// stage-level refined cost (SLA).
	PerHit noc.Cycles
	// Total is Hits · PerHit: this term's contribution to R.
	Total noc.Cycles
	// Downstream and Upstream are S^downj_Ii and S^upj_Ii: the indirect
	// interferers of τi acting on τj after/before the shared links.
	Downstream, Upstream []int
	// UsedFallback reports that IBN used the XLWX term for this pair
	// because τj suffers upstream indirect interference.
	UsedFallback bool
	// BufferedInterference is bi_ij (Equation 6), the per-hit replay cap
	// IBN applies to each downstream hit. Zero for SB/XLWX.
	BufferedInterference noc.Cycles
	// ContentionDomain is |cd_ij|.
	ContentionDomain int
}

// Breakdown decomposes one flow's response-time bound into its
// zero-load latency and per-interferer contributions: R = C + Σ Total.
type Breakdown struct {
	// Method is the analysis the breakdown decomposes.
	Method Method
	// Flow is the analysed flow's index.
	Flow int
	// Name is the flow's human-readable label.
	Name string
	// C and R are the zero-load latency and the bound (R is only
	// meaningful when Status is Schedulable or DeadlineMiss).
	C, R noc.Cycles
	// Status is the flow's analysis outcome.
	Status FlowStatus
	// Terms lists one interference contribution per direct interferer,
	// evaluated at the fixed point.
	Terms []InterferenceTerm
	// Blocking is the non-preemptive flit-transfer blocking term (see
	// blocking.go); zero on single-cycle links. The identity
	// R = C + Blocking + Σ Terms[].Total holds for Schedulable flows.
	Blocking noc.Cycles
}

// Explain runs the analysis over the engine's system and decomposes the
// bound of the given flow into per-interferer terms evaluated at the
// fixed point. The identity R = C + Blocking + Σ terms holds exactly for
// Schedulable flows. It shares the guarded run (option normalisation,
// fixed-point iterator, memo arenas) with Analyze.
func (e *Engine) Explain(opt Options, flow int) (*Breakdown, error) {
	if flow < 0 || flow >= e.sys.NumFlows() {
		return nil, fmt.Errorf("core: flow index %d out of range (%d flows)", flow, e.sys.NumFlows())
	}
	var b *Breakdown
	err := e.run(context.Background(), opt, func(a *analyzer) error {
		b = &Breakdown{
			Method: opt.Method,
			Flow:   flow,
			Name:   e.sys.Flow(flow).Name,
			C:      e.sys.C(flow),
			R:      a.R[flow],
			Status: a.status[flow],
		}
		if b.Status == DependencyFailed {
			return nil
		}
		var blockPerEpisode noc.Cycles
		if linkl := e.sys.Topology().Config().LinkLatency; linkl > 1 {
			blockPerEpisode = noc.SatMul(linkl-1, noc.Cycles(a.sharedLowLinks(flow)))
		}
		episodes := noc.Cycles(1)
		for _, j := range a.sets.Direct(flow) {
			term, err := a.explainTerm(flow, j)
			if err != nil {
				return err
			}
			term.Hits = ceilDiv(noc.SatAdd(a.R[flow], term.Jitter), e.sys.Flow(j).Period)
			term.Total = noc.SatMul(term.Hits, term.PerHit)
			if blockPerEpisode > 0 {
				replays, err := a.replayEpisodes(flow, j)
				if err != nil {
					return err
				}
				episodes = noc.SatAdd(episodes, noc.SatMul(term.Hits, noc.SatAdd(1, replays)))
			}
			b.Terms = append(b.Terms, term)
		}
		b.Blocking = noc.SatMul(blockPerEpisode, episodes)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// String renders the breakdown as a human-readable report.
func (b *Breakdown) String() string {
	var sb strings.Builder
	name := b.Name
	if name == "" {
		name = fmt.Sprintf("flow%d", b.Flow)
	}
	fmt.Fprintf(&sb, "%s under %v: R = %d (C = %d, status %v)\n", name, b.Method, b.R, b.C, b.Status)
	var sum noc.Cycles
	for _, t := range b.Terms {
		sum += t.Total
		fmt.Fprintf(&sb, "  + %6d from flow %d: %d hit(s) × %d (C=%d, I_down=%d), jitter %d",
			t.Total, t.Interferer, t.Hits, t.PerHit, t.Cj, t.IDown, t.Jitter)
		if len(t.Downstream) > 0 {
			fmt.Fprintf(&sb, ", downstream blockers %v", t.Downstream)
			if b.Method == IBN {
				if t.UsedFallback {
					sb.WriteString(" (upstream interference: XLWX fallback)")
				} else {
					fmt.Fprintf(&sb, " (bi cap %d over |cd|=%d)", t.BufferedInterference, t.ContentionDomain)
				}
			}
		}
		sb.WriteByte('\n')
	}
	if b.Blocking > 0 {
		fmt.Fprintf(&sb, "  + %6d non-preemptive flit-transfer blocking (multi-cycle links)\n", b.Blocking)
	}
	fmt.Fprintf(&sb, "  = C %d + interference %d\n", b.C, sum+b.Blocking)
	return sb.String()
}

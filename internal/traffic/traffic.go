// Package traffic models the real-time traffic load injected into the
// network: the set Γ of periodic/sporadic traffic flows of Section II of
// the paper, each characterised by τi = (Pi, Ci, Ti, Di, Ji, src, dst).
//
// A System binds a flow set to a concrete topology, caches every flow's
// route and provides the maximum zero-load network latency Ci (Equation 1
// of the paper).
package traffic

import (
	"fmt"
	"sort"

	"wormnoc/internal/noc"
)

// Flow is one real-time traffic flow τi. A flow releases a potentially
// unbounded sequence of packets, at least Period cycles apart, each with
// at most Length flits, which must reach Dst within Deadline cycles of
// the release.
type Flow struct {
	// Name is an optional human-readable label.
	Name string
	// Priority Pi of every packet of the flow; 1 is the highest priority
	// and larger integers denote lower priorities. The analyses and the
	// simulator require priorities to be unique within a flow set (one
	// virtual channel per priority level).
	Priority int
	// Period Ti: lower bound on the interval between successive releases.
	Period noc.Cycles
	// Deadline Di: upper bound on acceptable network latency. Must satisfy
	// Di <= Ti (so packets of the same flow never interfere).
	Deadline noc.Cycles
	// Jitter Ji: maximum deviation of a release from its periodic tick.
	Jitter noc.Cycles
	// Length Li: maximum number of flits of a packet of this flow.
	Length int
	// Src and Dst are the source and destination nodes (πi^s, πi^d).
	Src, Dst noc.NodeID
}

// Validate checks the flow's parameters in isolation.
func (f Flow) Validate() error {
	switch {
	case f.Priority < 1:
		return fmt.Errorf("traffic: flow %q: priority must be >= 1, got %d", f.Name, f.Priority)
	case f.Period < 1:
		return fmt.Errorf("traffic: flow %q: period must be >= 1 cycle, got %d", f.Name, f.Period)
	case f.Deadline < 1:
		return fmt.Errorf("traffic: flow %q: deadline must be >= 1 cycle, got %d", f.Name, f.Deadline)
	case f.Deadline > f.Period:
		return fmt.Errorf("traffic: flow %q: deadline %d exceeds period %d (the model requires Di <= Ti)",
			f.Name, f.Deadline, f.Period)
	case f.Jitter < 0:
		return fmt.Errorf("traffic: flow %q: jitter must be >= 0, got %d", f.Name, f.Jitter)
	case f.Length < 1:
		return fmt.Errorf("traffic: flow %q: packet length must be >= 1 flit, got %d", f.Name, f.Length)
	case f.Src == f.Dst:
		return fmt.Errorf("traffic: flow %q: source and destination are both node %d", f.Name, int(f.Src))
	}
	return nil
}

// String renders the flow's full parameter tuple in the paper's τ
// notation, useful in test failures and debug logs.
func (f Flow) String() string {
	return fmt.Sprintf("τ%q(P=%d L=%d T=%d D=%d J=%d %d→%d)",
		f.Name, f.Priority, f.Length, f.Period, f.Deadline, f.Jitter, int(f.Src), int(f.Dst))
}

// System is a flow set Γ bound to a topology, with routes and zero-load
// latencies precomputed. It is immutable after construction and safe for
// concurrent use.
type System struct {
	topo   *noc.Topology
	flows  []Flow
	routes []noc.Route
	zeroC  []noc.Cycles
	// byPriority holds flow indices sorted from highest priority
	// (smallest Pi) to lowest.
	byPriority []int
}

// NewSystem validates the flow set against the topology, computes every
// route (XY routing) and every zero-load latency Ci.
//
// Flow priorities must be unique: the architecture dedicates one virtual
// channel per priority level and every analysis reproduced here assumes a
// total priority order.
func NewSystem(topo *noc.Topology, flows []Flow) (*System, error) {
	if topo == nil {
		return nil, fmt.Errorf("traffic: nil topology")
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("traffic: empty flow set")
	}
	s := &System{
		topo:   topo,
		flows:  make([]Flow, len(flows)),
		routes: make([]noc.Route, len(flows)),
		zeroC:  make([]noc.Cycles, len(flows)),
	}
	copy(s.flows, flows)
	seen := make(map[int]int, len(flows))
	for i, f := range s.flows {
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("traffic: flow %d: %w", i, err)
		}
		if j, dup := seen[f.Priority]; dup {
			return nil, fmt.Errorf("traffic: flows %d and %d share priority %d (priorities must be unique)",
				j, i, f.Priority)
		}
		seen[f.Priority] = i
		route, err := topo.Route(f.Src, f.Dst)
		if err != nil {
			return nil, fmt.Errorf("traffic: flow %d (%q): %w", i, f.Name, err)
		}
		s.routes[i] = route
		s.zeroC[i] = ZeroLoadLatency(topo.Config(), route.Len(), f.Length)
		if s.zeroC[i] == noc.MaxCycles {
			return nil, fmt.Errorf("traffic: flow %d (%q): zero-load latency (Eq. 1) overflows int64 cycles", i, f.Name)
		}
	}
	s.byPriority = make([]int, len(flows))
	for i := range s.byPriority {
		s.byPriority[i] = i
	}
	sort.Slice(s.byPriority, func(a, b int) bool {
		return s.flows[s.byPriority[a]].Priority < s.flows[s.byPriority[b]].Priority
	})
	return s, nil
}

// MustSystem is NewSystem that panics on error; intended for tests and
// examples.
func MustSystem(topo *noc.Topology, flows []Flow) *System {
	s, err := NewSystem(topo, flows)
	if err != nil {
		panic(err)
	}
	return s
}

// ZeroLoadLatency evaluates Equation 1 of the paper: the latency of a
// packet of length flits over a route of routeLen links when no
// contention exists,
//
//	C = routl·(|route|-1) + linkl·|route| + linkl·(L-1)
//
// i.e. the header's zero-load latency (one routing decision per traversed
// router plus one link traversal per link) plus one link latency per
// payload flit pipelined behind the header. A latency that does not fit
// in int64 saturates at noc.MaxCycles, which NewSystem rejects.
func ZeroLoadLatency(cfg noc.RouterConfig, routeLen, length int) noc.Cycles {
	return noc.SatAdd(noc.SatAdd(
		noc.SatMul(cfg.RouteLatency, noc.Cycles(routeLen-1)),
		noc.SatMul(cfg.LinkLatency, noc.Cycles(routeLen))),
		noc.SatMul(cfg.LinkLatency, noc.Cycles(length-1)))
}

// Topology returns the platform the flow set is bound to.
func (s *System) Topology() *noc.Topology { return s.topo }

// NumFlows returns |Γ|.
func (s *System) NumFlows() int { return len(s.flows) }

// Flow returns flow i. Flows keep the order they were passed to
// NewSystem.
func (s *System) Flow(i int) Flow { return s.flows[i] }

// Flows returns the flow set; the returned slice must not be modified.
func (s *System) Flows() []Flow { return s.flows }

// Route returns route(τi); the returned slice must not be modified.
func (s *System) Route(i int) noc.Route { return s.routes[i] }

// C returns the maximum zero-load network latency Ci of flow i (Eq. 1).
func (s *System) C(i int) noc.Cycles { return s.zeroC[i] }

// ByPriority returns flow indices ordered from highest priority (Pi = 1)
// to lowest. The returned slice must not be modified.
func (s *System) ByPriority() []int { return s.byPriority }

// HigherPriority reports whether flow i has higher priority than flow j
// (Pi < Pj: smaller values denote higher priorities).
func (s *System) HigherPriority(i, j int) bool {
	return s.flows[i].Priority < s.flows[j].Priority
}

// Hyperperiod returns lcm(Ti) over the flow set: the joint release
// pattern of any phasing repeats with this period. A hyperperiod that
// does not fit in int64 saturates at noc.MaxCycles.
func (s *System) Hyperperiod() noc.Cycles {
	h := noc.Cycles(1)
	for _, f := range s.flows {
		g, b := h, f.Period
		for b != 0 {
			g, b = b, g%b
		}
		h = noc.SatMul(h/g, f.Period)
	}
	return h
}

// Utilisation returns the total link-time demand of the flow set as a
// fraction of the aggregate mesh-link capacity: Σ (Ci/Ti · |routei|) over
// the number of links. It is a coarse load indicator used by the
// experiment harness to characterise generated workloads.
func (s *System) Utilisation() float64 {
	var u float64
	for i, f := range s.flows {
		u += float64(s.zeroC[i]) / float64(f.Period) * float64(s.routes[i].Len())
	}
	return u / float64(s.topo.NumLinks())
}

// LinkLoads returns the long-run utilisation demanded of every link:
// for link λ, Σ over flows crossing λ of Li·linkl/Ti. A value above 1
// means the link is overcommitted and the flow set cannot be schedulable
// regardless of analysis. Indexed by LinkID.
func (s *System) LinkLoads() []float64 {
	loads := make([]float64, s.topo.NumLinks())
	linkl := float64(s.topo.Config().LinkLatency)
	for i, f := range s.flows {
		u := float64(f.Length) * linkl / float64(f.Period)
		for _, l := range s.routes[i] {
			loads[l] += u
		}
	}
	return loads
}

// WithConfig rebinds the same flow set to a topology with a different
// router configuration (e.g. another buffer depth), recomputing the
// zero-load latencies.
func (s *System) WithConfig(cfg noc.RouterConfig) (*System, error) {
	topo, err := s.topo.WithConfig(cfg)
	if err != nil {
		return nil, err
	}
	return NewSystem(topo, s.flows)
}

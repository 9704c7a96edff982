// Package noc models the hardware platform analysed by the paper: a
// wormhole-switched network-on-chip with a 2D mesh topology,
// dimension-order (XY) routing and priority-preemptive virtual-channel
// arbitration.
//
// The package provides the structural part of the system model of
// Section II of the paper: the sets of nodes Π, routers Ξ and
// unidirectional links Λ, the route function, and the contention-domain
// machinery (ordered link subsets, order/first/last helpers) that the
// response-time analyses in internal/core are built on.
//
// Terminology follows the paper:
//
//   - buf(Ξ)   — FIFO buffer depth (in flits) of a single virtual channel
//   - vc(Ξ)    — number of virtual channels (= priority levels) per router
//   - linkl(Ξ) — cycles for a router to transmit one flit over a link
//   - routl(Ξ) — cycles for a router to route a header flit
//
// The network is homogeneous: every router shares one RouterConfig.
package noc

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Cycles is a duration or instant measured in NoC clock cycles. All
// latencies, periods, deadlines and jitters in this module are expressed
// in cycles of the (single, global) network clock.
type Cycles int64

// MaxCycles is the largest representable cycle count. SatAdd and SatMul
// clamp to it instead of wrapping, and the analyses treat a value that
// reaches it as unbounded.
const MaxCycles = Cycles(math.MaxInt64)

// SatAdd returns a+b for non-negative a and b, or MaxCycles when the
// sum does not fit.
func SatAdd(a, b Cycles) Cycles {
	if s := a + b; s >= 0 {
		return s
	}
	return MaxCycles
}

// SatMul returns a·b for non-negative a and b, or MaxCycles when the
// product does not fit.
func SatMul(a, b Cycles) Cycles {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt64 {
		return MaxCycles
	}
	return Cycles(lo)
}

// NodeID identifies a processing node π attached to exactly one router.
// Nodes and routers share the same index space: node i is attached to
// router i.
type NodeID int

// RouterID identifies a router ξ of the mesh.
type RouterID int

// LinkID identifies one unidirectional link λ of the network. LinkIDs are
// dense indices into Topology.Links().
type LinkID int

// NoLink is the sentinel returned by lookups that find no link.
const NoLink LinkID = -1

// LinkKind distinguishes the three classes of unidirectional links in the
// model. Injection and ejection links connect a node to its local router;
// mesh links connect neighbouring routers.
type LinkKind uint8

const (
	// Injection links carry flits from a node into its local router.
	Injection LinkKind = iota
	// Mesh links carry flits between two neighbouring routers.
	Mesh
	// Ejection links carry flits from a router to its local node.
	Ejection
)

// String returns the lowercase kind name ("injection", "mesh" or
// "ejection").
func (k LinkKind) String() string {
	switch k {
	case Injection:
		return "injection"
	case Mesh:
		return "mesh"
	case Ejection:
		return "ejection"
	default:
		return fmt.Sprintf("LinkKind(%d)", uint8(k))
	}
}

// Direction enumerates the four mesh directions used by XY routing.
type Direction uint8

const (
	East  Direction = iota // +x
	West                   // -x
	North                  // +y
	South                  // -y
	numDirections
)

// String returns the lowercase compass name of the direction.
func (d Direction) String() string {
	switch d {
	case East:
		return "east"
	case West:
		return "west"
	case North:
		return "north"
	case South:
		return "south"
	default:
		return fmt.Sprintf("Direction(%d)", uint8(d))
	}
}

// Link is one unidirectional link of the network.
//
// For Mesh links, Src and Dst are the upstream and downstream routers.
// For Injection links, Dst is the router and Src is the router of the
// injecting node (they are equal, as node i attaches to router i).
// For Ejection links, Src is the router and Dst the router of the
// receiving node.
type Link struct {
	ID   LinkID
	Kind LinkKind
	Src  RouterID
	Dst  RouterID
}

// String renders the link in the paper's λ notation, distinguishing
// node↔router (injection/ejection) from router→router (mesh) hops.
func (l Link) String() string {
	switch l.Kind {
	case Injection:
		return fmt.Sprintf("λ[n%d→r%d]", int(l.Src), int(l.Dst))
	case Ejection:
		return fmt.Sprintf("λ[r%d→n%d]", int(l.Src), int(l.Dst))
	default:
		return fmt.Sprintf("λ[r%d→r%d]", int(l.Src), int(l.Dst))
	}
}

// RouterConfig holds the homogeneous per-router parameters of the
// platform, i.e. the functions buf(Ξ), vc(Ξ), linkl(Ξ) and routl(Ξ) of
// the system model.
type RouterConfig struct {
	// BufDepth is buf(Ξ): the capacity, in flits, of the FIFO buffer
	// implementing a single virtual channel. Must be >= 1; the paper uses
	// values between 2 and 100.
	BufDepth int
	// NumVCs is vc(Ξ): the number of virtual channels (and therefore
	// distinct priority levels) each router supports. A value of 0 means
	// "as many as needed" (one per flow priority), which is the assumption
	// made by all the analyses reproduced here.
	NumVCs int
	// LinkLatency is linkl(Ξ): cycles to transfer one flit over a link.
	LinkLatency Cycles
	// RouteLatency is routl(Ξ): cycles to route a header flit at a router.
	RouteLatency Cycles
}

// Validate reports whether the configuration is usable.
func (c RouterConfig) Validate() error {
	switch {
	case c.BufDepth < 1:
		return fmt.Errorf("noc: BufDepth must be >= 1, got %d", c.BufDepth)
	case c.NumVCs < 0:
		return fmt.Errorf("noc: NumVCs must be >= 0, got %d", c.NumVCs)
	case c.LinkLatency < 1:
		return fmt.Errorf("noc: LinkLatency must be >= 1 cycle, got %d", c.LinkLatency)
	case c.RouteLatency < 0:
		return fmt.Errorf("noc: RouteLatency must be >= 0 cycles, got %d", c.RouteLatency)
	}
	return nil
}

// Topology is a W×H 2D mesh of routers, each with one attached node, with
// unidirectional links in both directions between neighbours plus one
// injection and one ejection link per node. A 1×N (or N×1) mesh is a
// line, which is the shape of the paper's didactic example.
//
// Topology is immutable after construction and safe for concurrent use.
type Topology struct {
	w, h    int
	cfg     RouterConfig
	routing RoutingPolicy
	links   []Link
	// inj[n] and ej[n] are the injection/ejection link of node n.
	inj []LinkID
	ej  []LinkID
	// mesh[r*numDirections+d] is the mesh link leaving router r in
	// direction d, or NoLink at the mesh boundary.
	mesh []LinkID
}

// NewMesh builds a W×H mesh with the given homogeneous router
// configuration.
func NewMesh(w, h int, cfg RouterConfig) (*Topology, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("noc: mesh dimensions must be >= 1, got %dx%d", w, h)
	}
	if w*h < 2 {
		return nil, errors.New("noc: mesh must have at least 2 nodes")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := w * h
	t := &Topology{
		w:    w,
		h:    h,
		cfg:  cfg,
		inj:  make([]LinkID, n),
		ej:   make([]LinkID, n),
		mesh: make([]LinkID, n*int(numDirections)),
	}
	for i := range t.mesh {
		t.mesh[i] = NoLink
	}
	add := func(kind LinkKind, src, dst RouterID) LinkID {
		id := LinkID(len(t.links))
		t.links = append(t.links, Link{ID: id, Kind: kind, Src: src, Dst: dst})
		return id
	}
	for r := 0; r < n; r++ {
		t.inj[r] = add(Injection, RouterID(r), RouterID(r))
		t.ej[r] = add(Ejection, RouterID(r), RouterID(r))
	}
	for r := 0; r < n; r++ {
		x, y := r%w, r/w
		if x+1 < w {
			t.mesh[r*int(numDirections)+int(East)] = add(Mesh, RouterID(r), RouterID(r+1))
		}
		if x > 0 {
			t.mesh[r*int(numDirections)+int(West)] = add(Mesh, RouterID(r), RouterID(r-1))
		}
		if y+1 < h {
			t.mesh[r*int(numDirections)+int(North)] = add(Mesh, RouterID(r), RouterID(r+w))
		}
		if y > 0 {
			t.mesh[r*int(numDirections)+int(South)] = add(Mesh, RouterID(r), RouterID(r-w))
		}
	}
	return t, nil
}

// MustMesh is NewMesh that panics on error; intended for tests, examples
// and static configuration.
func MustMesh(w, h int, cfg RouterConfig) *Topology {
	t, err := NewMesh(w, h, cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Width returns the mesh width W.
func (t *Topology) Width() int { return t.w }

// Height returns the mesh height H.
func (t *Topology) Height() int { return t.h }

// NumNodes returns |Π| = W·H.
func (t *Topology) NumNodes() int { return t.w * t.h }

// NumRouters returns |Ξ| = W·H.
func (t *Topology) NumRouters() int { return t.w * t.h }

// NumLinks returns |Λ|, counting injection, ejection and mesh links.
func (t *Topology) NumLinks() int { return len(t.links) }

// Config returns the homogeneous router configuration.
func (t *Topology) Config() RouterConfig { return t.cfg }

// WithConfig returns a copy of the topology that shares the structural
// data (links, routes are identical) but uses a different router
// configuration. It is the cheap way to re-analyse the same network with
// a different buffer depth.
func (t *Topology) WithConfig(cfg RouterConfig) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	clone := *t
	clone.cfg = cfg
	return &clone, nil
}

// Routing returns the topology's dimension-order routing policy.
func (t *Topology) Routing() RoutingPolicy { return t.routing }

// WithRouting returns a copy of the topology using the given routing
// policy. Systems must be rebuilt against the new topology, as routes
// change.
func (t *Topology) WithRouting(p RoutingPolicy) (*Topology, error) {
	if p != XY && p != YX {
		return nil, fmt.Errorf("noc: unknown routing policy %d", uint8(p))
	}
	clone := *t
	clone.routing = p
	return &clone, nil
}

// Link returns the link with the given ID.
func (t *Topology) Link(id LinkID) Link {
	return t.links[id]
}

// Links returns all links of the network. The returned slice must not be
// modified.
func (t *Topology) Links() []Link { return t.links }

// InjectionLink returns the link from node n into its router.
func (t *Topology) InjectionLink(n NodeID) LinkID { return t.inj[n] }

// EjectionLink returns the link from node n's router to node n.
func (t *Topology) EjectionLink(n NodeID) LinkID { return t.ej[n] }

// MeshLink returns the mesh link leaving router r in direction d, or
// NoLink if r is at the boundary in that direction.
func (t *Topology) MeshLink(r RouterID, d Direction) LinkID {
	return t.mesh[int(r)*int(numDirections)+int(d)]
}

// Coord returns the (x, y) mesh coordinates of router r.
func (t *Topology) Coord(r RouterID) (x, y int) {
	return int(r) % t.w, int(r) / t.w
}

// RouterAt returns the router at mesh coordinates (x, y).
func (t *Topology) RouterAt(x, y int) RouterID {
	return RouterID(y*t.w + x)
}

// ContainsNode reports whether n is a valid node of this topology.
func (t *Topology) ContainsNode(n NodeID) bool {
	return n >= 0 && int(n) < t.NumNodes()
}

// String summarises the mesh shape and router configuration on one
// line, e.g. "mesh 4x4 (16 nodes, 80 links, buf=4 linkl=1 routl=0)".
func (t *Topology) String() string {
	return fmt.Sprintf("mesh %dx%d (%d nodes, %d links, buf=%d linkl=%d routl=%d)",
		t.w, t.h, t.NumNodes(), t.NumLinks(),
		t.cfg.BufDepth, t.cfg.LinkLatency, t.cfg.RouteLatency)
}

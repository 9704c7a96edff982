package sim

import (
	"fmt"
	"math/rand"

	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
)

// RunReference simulates the system with the retained pre-event-driven
// engine: a straightforward cycle loop that scans every flow for due
// releases and arbitrates every link, every cycle. It is kept verbatim
// as the differential baseline for the event-driven Engine — the two
// must produce bit-identical Results and trace streams on every input
// (see TestDifferentialEngines and the oracle's divergence invariant).
// It is deliberately unoptimised; use Run/Engine for real workloads.
func RunReference(sys *traffic.System, cfg Config) (*Result, error) {
	if err := validateConfig(sys, cfg); err != nil {
		return nil, err
	}
	e := newRefEngine(sys, cfg)
	e.run()
	return e.res, nil
}

// refPacket is one released packet of the reference engine.
type refPacket struct {
	flow     int
	id       int
	release  noc.Cycles
	length   int
	injected int // flits handed to the injection link so far
	arrived  int // flits delivered to the destination node so far
}

// refFlit is one flow-control unit inside a reference VC buffer.
type refFlit struct {
	pkt *refPacket
	seq int
	// readyAt is the earliest cycle a header flit may compete for the
	// next link (arrival + routl); body flits are ready on arrival.
	readyAt noc.Cycles
}

// refArrival is a flit in transit over a link.
type refArrival struct {
	at   noc.Cycles
	flow int
	hop  int // index of the link just crossed in the flow's route
	fl   refFlit
}

// refCand is one arbitration candidate: a flow crossing hop hop of its
// route.
type refCand struct{ flow, hop int }

// refVCFIFO is the reference engine's FIFO buffer of one virtual channel
// at one router input port.
type refVCFIFO struct {
	flits    []refFlit
	head     int
	inflight int // flits transferred but not yet arrived (credit debt)
}

func (f *refVCFIFO) len() int { return len(f.flits) - f.head }

func (f *refVCFIFO) occupancy() int { return f.len() + f.inflight }

func (f *refVCFIFO) push(fl refFlit) {
	if f.head > 0 && f.head == len(f.flits) {
		f.flits = f.flits[:0]
		f.head = 0
	} else if f.head > 64 && f.head*2 >= len(f.flits) {
		n := copy(f.flits, f.flits[f.head:])
		f.flits = f.flits[:n]
		f.head = 0
	}
	f.flits = append(f.flits, fl)
}

func (f *refVCFIFO) peek() *refFlit { return &f.flits[f.head] }

func (f *refVCFIFO) pop() refFlit {
	fl := f.flits[f.head]
	f.head++
	return fl
}

// refEngine is the mutable state of the reference simulation.
type refEngine struct {
	sys *traffic.System
	cfg Config

	linkl noc.Cycles
	routl noc.Cycles
	buf   int

	routes []noc.Route
	// fifos[flow][hop] is the VC buffer fed by route[hop], for
	// hop in [0, len(route)-2]. The ejection link feeds the sink.
	fifos [][]*refVCFIFO
	// onLink[l] lists the (flow, hop) pairs whose route crosses link l,
	// i.e. the arbitration candidates of link l.
	onLink [][]refCand

	busyUntil []noc.Cycles // per link

	// source state per flow
	queue       [][]*refPacket // released, not fully injected
	nextRelease []noc.Cycles
	released    []int
	pktSeq      []int
	// jittered releases scheduled but not yet due, ordered by time.
	pending [][]noc.Cycles
	jitter  *rand.Rand

	// arrivals is a FIFO of in-transit flits; since every transfer takes
	// exactly linkl cycles, arrivals complete in submission order.
	arrivals    []refArrival
	arrivalHead int

	res       *Result
	inFlight  int
	flitsLive int // flits inside FIFOs or in transit
}

func newRefEngine(sys *traffic.System, cfg Config) *refEngine {
	n := sys.NumFlows()
	topo := sys.Topology()
	rc := topo.Config()
	e := &refEngine{
		sys:         sys,
		cfg:         cfg,
		linkl:       rc.LinkLatency,
		routl:       rc.RouteLatency,
		buf:         rc.BufDepth,
		routes:      make([]noc.Route, n),
		fifos:       make([][]*refVCFIFO, n),
		onLink:      make([][]refCand, topo.NumLinks()),
		busyUntil:   make([]noc.Cycles, topo.NumLinks()),
		queue:       make([][]*refPacket, n),
		nextRelease: make([]noc.Cycles, n),
		released:    make([]int, n),
		pktSeq:      make([]int, n),
		pending:     make([][]noc.Cycles, n),
		jitter:      rand.New(rand.NewSource(cfg.JitterSeed)),
		res: &Result{
			WorstLatency:   make([]noc.Cycles, n),
			TotalLatency:   make([]noc.Cycles, n),
			Completed:      make([]int, n),
			Released:       make([]int, n),
			DeadlineMisses: make([]int, n),
			MaxOccupancy:   make([][]int, n),
		},
	}
	if cfg.RecordLatencies {
		e.res.Latencies = make([][]noc.Cycles, n)
	}
	for i := 0; i < n; i++ {
		e.res.WorstLatency[i] = -1
		e.routes[i] = sys.Route(i)
		e.res.MaxOccupancy[i] = make([]int, e.routes[i].Len()-1)
		e.fifos[i] = make([]*refVCFIFO, e.routes[i].Len()-1)
		for h := range e.fifos[i] {
			e.fifos[i][h] = &refVCFIFO{}
		}
		for h, l := range e.routes[i] {
			e.onLink[l] = append(e.onLink[l], refCand{flow: i, hop: h})
		}
		if cfg.Offsets != nil {
			e.nextRelease[i] = cfg.Offsets[i]
		}
	}
	// Keep candidate lists priority-sorted so arbitration scans stop at
	// the first eligible candidate.
	for l := range e.onLink {
		cands := e.onLink[l]
		for a := 1; a < len(cands); a++ {
			for b := a; b > 0 && sys.Flow(cands[b].flow).Priority < sys.Flow(cands[b-1].flow).Priority; b-- {
				cands[b], cands[b-1] = cands[b-1], cands[b]
			}
		}
	}
	return e
}

func (e *refEngine) run() {
	var transfers []refCand
	for t := noc.Cycles(0); t < e.cfg.Duration; t++ {
		// 1. Deliver flits whose link traversal completes at t.
		for e.arrivalHead < len(e.arrivals) && e.arrivals[e.arrivalHead].at <= t {
			a := e.arrivals[e.arrivalHead]
			e.arrivalHead++
			e.deliver(a)
		}
		if e.arrivalHead == len(e.arrivals) && e.arrivalHead > 0 {
			e.arrivals = e.arrivals[:0]
			e.arrivalHead = 0
		}
		// 2. Release periodic packets whose tick is due. With jitter
		// injection the actual release may trail the tick by up to J
		// cycles; releases of one flow stay ordered (a source emits
		// packets in order).
		for i := 0; i < e.sys.NumFlows(); i++ {
			f := e.sys.Flow(i)
			for e.nextRelease[i] <= t {
				if e.cfg.MaxPacketsPerFlow > 0 && e.released[i] >= e.cfg.MaxPacketsPerFlow {
					break
				}
				e.released[i]++
				relAt := e.nextRelease[i]
				if e.cfg.InjectJitter && f.Jitter > 0 {
					relAt += noc.Cycles(e.jitter.Int63n(int64(f.Jitter) + 1))
					if n := len(e.pending[i]); n > 0 && relAt < e.pending[i][n-1] {
						relAt = e.pending[i][n-1]
					}
				}
				if relAt <= t {
					e.releasePacket(i, relAt)
				} else {
					e.pending[i] = append(e.pending[i], relAt)
				}
				e.nextRelease[i] += f.Period
			}
			for len(e.pending[i]) > 0 && e.pending[i][0] <= t {
				e.releasePacket(i, e.pending[i][0])
				e.pending[i] = e.pending[i][1:]
			}
		}
		// Fast-forward across idle gaps: nothing can happen before the
		// next (possibly jittered) release when the network is empty.
		if e.flitsLive == 0 && e.allQueuesEmpty() {
			next := e.cfg.Duration
			for i := range e.nextRelease {
				if len(e.pending[i]) > 0 && e.pending[i][0] < next {
					next = e.pending[i][0]
				}
				if e.cfg.MaxPacketsPerFlow > 0 && e.released[i] >= e.cfg.MaxPacketsPerFlow {
					continue
				}
				if e.nextRelease[i] < next {
					next = e.nextRelease[i]
				}
			}
			if next > t+1 {
				t = next - 1 // loop increment brings us to the release
			}
			continue
		}
		// 3. Arbitrate every link: highest-priority eligible candidate
		// (head flit, routed, with downstream credit) wins.
		transfers = transfers[:0]
		for l, cands := range e.onLink {
			if e.busyUntil[l] > t || len(cands) == 0 {
				continue
			}
			for _, c := range cands {
				if e.eligible(c, t) {
					transfers = append(transfers, c)
					break
				}
			}
		}
		// 4. Apply the transfers decided this cycle simultaneously.
		for _, c := range transfers {
			e.transfer(c, t)
		}
	}
	e.res.InFlight = e.inFlight
}

// releasePacket makes a packet of flow i available for injection at
// cycle relAt (its latency is measured from relAt).
func (e *refEngine) releasePacket(i int, relAt noc.Cycles) {
	p := &refPacket{
		flow:    i,
		id:      e.pktSeq[i],
		release: relAt,
		length:  e.sys.Flow(i).Length,
	}
	e.pktSeq[i]++
	e.res.Released[i]++
	e.inFlight++
	e.queue[i] = append(e.queue[i], p)
}

func (e *refEngine) allQueuesEmpty() bool {
	for _, q := range e.queue {
		if len(q) > 0 {
			return false
		}
	}
	return true
}

// eligible reports whether candidate c (flow crossing hop c.hop of its
// route) can transfer a flit this cycle: it must have a head flit that
// has been routed, and the downstream VC buffer must have a free slot
// (credit-based flow control).
func (e *refEngine) eligible(c refCand, t noc.Cycles) bool {
	route := e.routes[c.flow]
	if c.hop == 0 {
		// Injection: the source node offers the next flit of its oldest
		// pending packet.
		q := e.queue[c.flow]
		if len(q) == 0 {
			return false
		}
		return e.fifos[c.flow][0].occupancy() < e.buf
	}
	f := e.fifos[c.flow][c.hop-1]
	if f.len() == 0 {
		return false
	}
	if f.peek().readyAt > t {
		return false // header still being routed
	}
	if c.hop == route.Len()-1 {
		return true // ejection into the node: always consumes
	}
	return e.fifos[c.flow][c.hop].occupancy() < e.buf
}

// transfer moves one flit of candidate c onto its link at cycle t.
func (e *refEngine) transfer(c refCand, t noc.Cycles) {
	route := e.routes[c.flow]
	l := route[c.hop]
	var fl refFlit
	if c.hop == 0 {
		p := e.queue[c.flow][0]
		fl = refFlit{pkt: p, seq: p.injected}
		p.injected++
		if p.injected == p.length {
			e.queue[c.flow] = e.queue[c.flow][1:]
		}
		e.flitsLive++
	} else {
		fl = e.fifos[c.flow][c.hop-1].pop()
	}
	if c.hop < route.Len()-1 {
		e.fifos[c.flow][c.hop].inflight++
	}
	e.busyUntil[l] = t + e.linkl
	e.arrivals = append(e.arrivals, refArrival{at: t + e.linkl, flow: c.flow, hop: c.hop, fl: fl})
	if e.cfg.TraceWriter != nil {
		fmt.Fprintf(e.cfg.TraceWriter, "%d,%d,%d,%d,%d\n", t, int(l), c.flow, fl.pkt.id, fl.seq)
	}
}

// deliver completes a link traversal: the flit lands in the next VC
// buffer, or in the destination node when the link was the ejection one.
func (e *refEngine) deliver(a refArrival) {
	route := e.routes[a.flow]
	if a.hop == route.Len()-1 {
		// Ejected: consumed by the destination node.
		p := a.fl.pkt
		p.arrived++
		e.flitsLive--
		if p.arrived == p.length {
			e.inFlight--
			lat := a.at - p.release
			e.res.Completed[a.flow]++
			e.res.TotalLatency[a.flow] += lat
			if lat > e.res.WorstLatency[a.flow] {
				e.res.WorstLatency[a.flow] = lat
			}
			if lat > e.sys.Flow(a.flow).Deadline {
				e.res.DeadlineMisses[a.flow]++
			}
			if e.cfg.RecordLatencies {
				e.res.Latencies[a.flow] = append(e.res.Latencies[a.flow], lat)
			}
		}
		return
	}
	f := e.fifos[a.flow][a.hop]
	f.inflight--
	fl := a.fl
	if fl.seq == 0 {
		fl.readyAt = a.at + e.routl // header pays the routing latency
	} else {
		fl.readyAt = a.at
	}
	f.push(fl)
	if occ := f.len(); occ > e.res.MaxOccupancy[a.flow][a.hop] {
		e.res.MaxOccupancy[a.flow][a.hop] = occ
	}
}

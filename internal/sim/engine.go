package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"

	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
)

// maxCycles is the "never" sentinel for event times.
const maxCycles = noc.Cycles(math.MaxInt64)

// traceFlushSize is the trace buffer high-water mark: one Write per
// ~32KiB of CSV instead of one Fprintf per flit.
const traceFlushSize = 32 << 10

// maxCutHyperperiod bounds the hyperperiod of a recurrence-cut run, and
// so the engine's phase set, one bit per hyperperiod cycle, at 128KiB:
// a long horizon over long commensurate periods must not cost gigabytes.
const maxCutHyperperiod = 1 << 20

// packet is one released packet. Packets live in the engine's slab and
// are addressed by int32 slab index, so flits, arrivals and source
// queues hold no pointers and the hot loop copies small plain values.
type packet struct {
	release  noc.Cycles
	id       int // per-flow sequence number (the trace's packet column)
	length   int32
	injected int32 // flits handed to the injection link so far
	arrived  int32 // flits delivered to the destination node so far
}

// flit is one flow-control unit inside a VC buffer: flit seq of the
// packet at slab index pkt. validateConfig caps packet lengths at
// math.MaxInt32, so seq cannot wrap to a second header.
type flit struct {
	pkt int32
	seq int32
	// readyAt is the earliest cycle a header flit may compete for the
	// next link (arrival + routl); body flits are ready on arrival.
	readyAt noc.Cycles
}

// arrival is a flit in transit over a link.
type arrival struct {
	at   noc.Cycles
	flow int32
	hop  int32 // index of the link just crossed in the flow's route
	fl   flit
}

// cand is one arbitration candidate: a flow crossing hop hop of its
// route.
type cand struct{ flow, hop int32 }

// vcFIFO is the FIFO buffer of one virtual channel at one router input
// port. Because flow priorities are unique and each priority has its own
// VC, each FIFO carries flits of exactly one flow. It is head-indexed:
// pop advances a cursor instead of re-slicing, and push reclaims the
// dead prefix, so the backing array reaches a steady size and is reused
// across Engine runs.
type vcFIFO struct {
	flits    []flit
	head     int
	inflight int // flits transferred but not yet arrived (credit debt)
}

func (f *vcFIFO) len() int { return len(f.flits) - f.head }

func (f *vcFIFO) occupancy() int { return f.len() + f.inflight }

// compact reclaims the dead prefix before an append.
func (f *vcFIFO) compact() {
	if f.head > 0 && f.head == len(f.flits) {
		f.flits = f.flits[:0]
		f.head = 0
	} else if f.head > 64 && f.head*2 >= len(f.flits) {
		n := copy(f.flits, f.flits[f.head:])
		f.flits = f.flits[:n]
		f.head = 0
	}
}

func (f *vcFIFO) push(fl flit) {
	f.compact()
	f.flits = append(f.flits, fl)
}

// extend appends n flits to the buffer and returns them for the caller
// to fill: the bulk form of push.
func (f *vcFIFO) extend(n int) []flit {
	f.compact()
	k := len(f.flits)
	f.flits = slices.Grow(f.flits, n)[:k+n]
	return f.flits[k:]
}

func (f *vcFIFO) peek() *flit { return &f.flits[f.head] }

func (f *vcFIFO) pop() flit {
	fl := f.flits[f.head]
	f.head++
	return fl
}

func (f *vcFIFO) reset() {
	f.flits = f.flits[:0]
	f.head = 0
	f.inflight = 0
}

// pktQueue is a head-indexed queue of the slab indices of one flow's
// released-but-not-fully-injected packets (the source queue). Like
// vcFIFO it reclaims its dead prefix instead of re-slicing, so the
// backing array is reused.
type pktQueue struct {
	buf  []int32
	head int
}

func (q *pktQueue) len() int { return len(q.buf) - q.head }

func (q *pktQueue) push(p int32) {
	if q.head > 0 && q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > 32 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, p)
}

func (q *pktQueue) peek() int32 { return q.buf[q.head] }

func (q *pktQueue) pop() { q.head++ }

func (q *pktQueue) reset() {
	q.buf = q.buf[:0]
	q.head = 0
}

// cycQueue is a head-indexed queue of cycle instants: the
// scheduled-but-not-yet-due jittered releases of one flow. It replaces
// the old `pending[i] = pending[i][1:]` re-slicing, which leaked the
// consumed prefix capacity forever.
type cycQueue struct {
	buf  []noc.Cycles
	head int
}

func (q *cycQueue) len() int { return len(q.buf) - q.head }

func (q *cycQueue) push(c noc.Cycles) {
	if q.head > 0 && q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > 32 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, c)
}

func (q *cycQueue) front() noc.Cycles { return q.buf[q.head] }

func (q *cycQueue) back() noc.Cycles { return q.buf[len(q.buf)-1] }

func (q *cycQueue) pop() noc.Cycles {
	c := q.buf[q.head]
	q.head++
	return c
}

func (q *cycQueue) reset() {
	q.buf = q.buf[:0]
	q.head = 0
}

// relEvent is one entry of the release heap: flow flow's earliest
// pending source event (periodic tick or due jittered release) at cycle
// at. Each flow has at most one live entry.
type relEvent struct {
	at   noc.Cycles
	flow int32
}

// linkEvent is one entry of the wakeup heap: link link must be
// re-arbitrated at cycle at, when a header flit at a feeding FIFO
// finishes routing.
type linkEvent struct {
	at   noc.Cycles
	link int32
}

// Engine is a reusable event-driven simulation engine bound to one
// system. Build it once with NewEngine and call Run repeatedly: every
// internal buffer (VC FIFOs, source queues, arrival ring, event heaps,
// packet slab, result slices) is recycled across runs, so steady-state
// operation allocates nothing. That is what makes the adversarial
// phasing search and the verification oracle — thousands of runs per
// scenario — cheap.
//
// The Result returned by Run is owned by the engine and overwritten by
// the next Run; callers that retain it across runs must copy it first.
// An Engine is not safe for concurrent use; give each goroutine its own.
//
// Engine produces bit-identical Results and trace streams to
// RunReference; see DESIGN.md §10 for why cycle skipping and dirty-link
// arbitration cannot change observable state.
type Engine struct {
	sys *traffic.System
	cfg Config

	linkl noc.Cycles
	routl noc.Cycles
	buf   int
	n     int // flows

	flows  []traffic.Flow
	routes []noc.Route
	// fifos[flow][hop] is the VC buffer fed by route[hop], for
	// hop in [0, len(route)-2]. The ejection link feeds the sink.
	fifos [][]vcFIFO
	// onLink[l] lists the (flow, hop) pairs whose route crosses link l,
	// priority-sorted, i.e. the arbitration candidates of link l.
	onLink [][]cand

	busyUntil []noc.Cycles // per link

	// source state per flow
	queue       []pktQueue
	nextRelease []noc.Cycles
	released    []int
	pktSeq      []int
	pending     []cycQueue // jittered releases not yet due, time-ordered
	jitter      *rand.Rand // over a jitterStream

	// arrivals is a FIFO of in-transit flits; since every transfer takes
	// exactly linkl cycles, arrivals complete in submission order.
	// arrivals[arrivalHead:] are in flight; the flits delivered in the
	// current cycle stay just below arrivalHead until the next cycle
	// starts, for the lock pre-filter.
	arrivals    []arrival
	arrivalHead int

	// Event state. dirty is a bitset (bit l of word l/64) of the links
	// whose arbitration inputs changed since they were last examined,
	// nDirty its population. Arbitration swaps it with arbSet, the
	// all-zero spare, and scans the set bits word by word: the scan
	// yields ascending link ids without a sort. relHeap orders each
	// flow's next source event by (time, flow) — the flow tie-break
	// preserves the reference engine's flow-index release order, which
	// the shared jitter stream observes. wakeHeap holds the link
	// re-arbitrations due when a header finishes routing (busy periods
	// end with a delivery, which needs no heap entry); linkWakeAt[l] is
	// the earliest pending wakeup of
	// link l (dedup so a hot link does not flood the heap).
	dirty      []uint64
	arbSet     []uint64
	nDirty     int
	relHeap    []relEvent
	wakeHeap   []linkEvent
	linkWakeAt []noc.Cycles

	transfers []cand

	// Locked-arbitration fast-path state (DESIGN.md §13), used by runs
	// without a trace writer. streak counts the consecutive cycles, up to
	// the last executed one, whose transfer set equalled the set linkl
	// cycles earlier (the lock pre-filter). win is the window of
	// in-flight winners during an analysis — the live arrival ring, one
	// flit per winner in transfer order — and winnerOf maps a link to its
	// index in win (-1 outside an analysis); batchOrder and lastFlits
	// are bulk-apply scratch.
	streak     noc.Cycles
	win        []arrival
	winnerOf   []int32
	batchOrder []int32
	lastFlits  []flit

	// Packet slab: pkts holds every packet slot of this run, freePkts
	// the slab indices of completed packets, reused first. reset
	// truncates both, so packets stranded in flight at a horizon are
	// recovered too. The slab grows only when no slot is free, so its
	// length never exceeds the peak number of live (released, not yet
	// delivered) packets; an int32 index would need 2^31 of them, a
	// 64 GiB slab, before it could wrap.
	pkts     []packet
	freePkts []int32

	traceBuf []byte

	res       *Result
	inFlight  int
	flitsLive int // flits inside FIFOs or in transit

	// stop is set once a target-scoped run's target can no longer
	// complete a packet inside the horizon (see targetDone), once a
	// busy-period run's network drains, or once a recurrence-cut run
	// drains at a phase it drained at before; the main loop then exits
	// at the top of the next cycle.
	stop bool

	// Recurrence-cut state (DESIGN.md §10). hyper is lcm(Tᵢ). recur
	// gates the cut for this run; phaseFrom is the first cycle from
	// which every flow's next release lies less than a period ahead.
	// seenPhase is a bitset over [0, hyper) of the phases d mod hyper of
	// the drains recorded so far; cutLog holds those drains and the
	// target's completions in time order, and a cut run's repeating
	// segment starts after cutLog[cutFrom].
	hyper     noc.Cycles
	recur     bool
	phaseFrom noc.Cycles
	seenPhase []uint64
	cutLog    []cutEvent
	cutFrom   int
}

// cutEvent is one entry of a recurrence-cut run's log: a target
// completion at cycle at with latency lat, or, when lat is negative, a
// recorded drain at cycle at.
type cutEvent struct {
	at, lat noc.Cycles
}

// NewEngine builds a reusable event-driven engine for sys. The engine
// captures the system's topology, routes and per-link candidate lists
// once; each Run then only resets mutable state.
func NewEngine(sys *traffic.System) *Engine {
	n := sys.NumFlows()
	topo := sys.Topology()
	rc := topo.Config()
	words := (topo.NumLinks() + 63) / 64
	e := &Engine{
		sys:         sys,
		linkl:       rc.LinkLatency,
		routl:       rc.RouteLatency,
		buf:         rc.BufDepth,
		n:           n,
		flows:       make([]traffic.Flow, n),
		routes:      make([]noc.Route, n),
		fifos:       make([][]vcFIFO, n),
		onLink:      make([][]cand, topo.NumLinks()),
		busyUntil:   make([]noc.Cycles, topo.NumLinks()),
		queue:       make([]pktQueue, n),
		nextRelease: make([]noc.Cycles, n),
		released:    make([]int, n),
		pktSeq:      make([]int, n),
		pending:     make([]cycQueue, n),
		jitter:      rand.New(new(jitterStream)),
		dirty:       make([]uint64, words),
		arbSet:      make([]uint64, words),
		linkWakeAt:  make([]noc.Cycles, topo.NumLinks()),
		hyper:       sys.Hyperperiod(),
		winnerOf:    make([]int32, topo.NumLinks()),
		res: &Result{
			WorstLatency:   make([]noc.Cycles, n),
			TotalLatency:   make([]noc.Cycles, n),
			Completed:      make([]int, n),
			Released:       make([]int, n),
			DeadlineMisses: make([]int, n),
			MaxOccupancy:   make([][]int, n),
		},
	}
	for i := range e.winnerOf {
		e.winnerOf[i] = -1
	}
	hops := 0
	for i := 0; i < n; i++ {
		e.flows[i] = sys.Flow(i)
		e.routes[i] = sys.Route(i)
		hops += e.routes[i].Len() - 1
	}
	fifoStore := make([]vcFIFO, hops)
	occStore := make([]int, hops)
	for i := 0; i < n; i++ {
		h := e.routes[i].Len() - 1
		e.fifos[i], fifoStore = fifoStore[:h:h], fifoStore[h:]
		e.res.MaxOccupancy[i], occStore = occStore[:h:h], occStore[h:]
		for hop, l := range e.routes[i] {
			e.onLink[l] = append(e.onLink[l], cand{flow: int32(i), hop: int32(hop)})
		}
	}
	// Keep candidate lists priority-sorted so arbitration scans stop at
	// the first eligible candidate.
	for l := range e.onLink {
		cands := e.onLink[l]
		for a := 1; a < len(cands); a++ {
			for b := a; b > 0 && e.flows[cands[b].flow].Priority < e.flows[cands[b-1].flow].Priority; b-- {
				cands[b], cands[b-1] = cands[b-1], cands[b]
			}
		}
	}
	return e
}

// Run simulates the system for cfg.Duration cycles and reports the
// observed latencies. The returned Result is owned by the engine and
// valid only until the next Run.
func (e *Engine) Run(cfg Config) (*Result, error) {
	if err := validateConfig(e.sys, cfg); err != nil {
		return nil, err
	}
	e.reset(cfg)
	e.run()
	return e.res, nil
}

// RunBusyPeriod simulates the system's first busy period: it runs like
// Run but ends at the top of the cycle after the network first drains,
// that is, the first cycle after the first release at which every
// released packet has been delivered. Result.Stats.StoppedAt is that
// cycle, or cfg.Duration when the network never drained inside the
// horizon. The Result equals a full run's at Duration StoppedAt.
//
// From a drained instant on, a jitter-free run depends only on each
// flow's next release relative to that instant, so a later busy
// period is the first busy period of another phasing; the exhaustive
// explorer relies on this (DESIGN.md §15). Pending jittered releases
// would be hidden state, so InjectJitter is rejected.
func (e *Engine) RunBusyPeriod(cfg Config) (*Result, error) {
	if cfg.InjectJitter {
		return nil, fmt.Errorf("sim: a busy-period run cannot inject jitter")
	}
	cfg.busyPeriod = true
	return e.Run(cfg)
}

// reset rewinds every piece of mutable state to cycle 0 while keeping
// backing arrays, so a warm engine allocates nothing.
func (e *Engine) reset(cfg Config) {
	e.cfg = cfg
	for i := range e.busyUntil {
		e.busyUntil[i] = 0
		e.linkWakeAt[i] = maxCycles
	}
	clear(e.dirty)
	clear(e.arbSet)
	e.nDirty = 0
	for i := 0; i < e.n; i++ {
		e.queue[i].reset()
		e.pending[i].reset()
		if cfg.Offsets != nil {
			e.nextRelease[i] = cfg.Offsets[i]
		} else {
			e.nextRelease[i] = 0
		}
		e.released[i] = 0
		e.pktSeq[i] = 0
		for h := range e.fifos[i] {
			e.fifos[i][h].reset()
			e.res.MaxOccupancy[i][h] = 0
		}
		e.res.WorstLatency[i] = -1
		e.res.TotalLatency[i] = 0
		e.res.Completed[i] = 0
		e.res.Released[i] = 0
		e.res.DeadlineMisses[i] = 0
	}
	if cfg.RecordLatencies {
		if e.res.Latencies == nil {
			e.res.Latencies = make([][]noc.Cycles, e.n)
		}
		for i := range e.res.Latencies {
			e.res.Latencies[i] = e.res.Latencies[i][:0]
		}
	} else {
		e.res.Latencies = nil
	}
	e.res.InFlight = 0
	e.jitter.Seed(cfg.JitterSeed)
	e.arrivals = e.arrivals[:0]
	e.arrivalHead = 0
	e.relHeap = e.relHeap[:0]
	e.wakeHeap = e.wakeHeap[:0]
	e.transfers = e.transfers[:0]
	e.streak = 0
	e.res.Stats = Stats{}
	e.pkts = e.pkts[:0]
	e.freePkts = e.freePkts[:0]
	e.traceBuf = e.traceBuf[:0]
	e.inFlight = 0
	e.flitsLive = 0
	// A target first released at or past the horizon has nothing to
	// observe.
	e.stop = cfg.stopFlow > 0 && e.targetDone(cfg.stopFlow-1)
	// A jitter-free, uncapped, untraced, unrecorded scoped run whose
	// horizon spans a hyperperiod may end at a recurrence; cycle 0 is its
	// first drain. The phase set is cleared bit by bit through the last
	// cut run's drains, so a reset costs nothing per hyperperiod cycle.
	for _, ev := range e.cutLog {
		if ev.lat < 0 {
			ph := ev.at % e.hyper
			e.seenPhase[ph>>6] &^= 1 << (ph & 63)
		}
	}
	e.cutLog = e.cutLog[:0]
	e.recur = cfg.stopFlow > 0 && !cfg.InjectJitter && cfg.MaxPacketsPerFlow == 0 &&
		cfg.TraceWriter == nil && !cfg.RecordLatencies && e.hyper < cfg.Duration &&
		e.hyper <= maxCutHyperperiod
	if e.recur {
		if e.seenPhase == nil {
			e.seenPhase = make([]uint64, (e.hyper+63)/64)
		}
		e.phaseFrom = 0
		for i, off := range cfg.Offsets {
			e.phaseFrom = max(e.phaseFrom, off-e.flows[i].Period+1)
		}
		e.drained(0)
	}
}

// drained handles a drain instant d of a recurrence-cut run: every
// released packet has been delivered and no release at d has happened
// yet. From d on, the run depends only on each flow's next release
// minus d, a function of d mod hyper once d >= phaseFrom. So when an
// earlier drain had the same phase, the run from that drain on repeats
// with period d minus it, and the run stops; run then extrapolates the
// target's row (extrapolate).
func (e *Engine) drained(d noc.Cycles) {
	if d < e.phaseFrom {
		return
	}
	ph := d % e.hyper
	if w, bit := ph>>6, uint64(1)<<(ph&63); e.seenPhase[w]&bit == 0 {
		e.seenPhase[w] |= bit
		e.cutLog = append(e.cutLog, cutEvent{at: d, lat: -1})
		return
	}
	k := len(e.cutLog) - 1
	for e.cutLog[k].lat >= 0 || e.cutLog[k].at%e.hyper != ph {
		k--
	}
	e.cutFrom = k
	e.res.Stats.recurrence = d - e.cutLog[k].at
	e.stop = true
}

// extrapolate completes the target's row of a run cut at a recurrence
// of period L from drain cutLog[cutFrom]: each target completion at a
// after that drain recurs ⌊(Duration−1−a)/L⌋ more times inside the
// horizon, with the same latency, and Released counts every tick below
// the horizon. The recurrences repeat latencies and occupancies already
// observed, so WorstLatency and MaxOccupancy are final.
func (e *Engine) extrapolate() {
	f, L := e.cfg.stopFlow-1, e.res.Stats.recurrence
	fl := &e.flows[f]
	for _, c := range e.cutLog[e.cutFrom+1:] {
		if c.lat < 0 {
			continue
		}
		n := (e.cfg.Duration - 1 - c.at) / L
		e.res.Completed[f] += int(n)
		e.res.TotalLatency[f] += n * c.lat
		if c.lat > fl.Deadline {
			e.res.DeadlineMisses[f] += int(n)
		}
	}
	// The target's offset is below the horizon, or reset would have
	// stopped the run before its first cycle.
	off := noc.Cycles(0)
	if e.cfg.Offsets != nil {
		off = e.cfg.Offsets[f]
	}
	e.res.Released[f] = int((e.cfg.Duration-1-off)/fl.Period + 1)
}

// targetDone reports whether flow f, the target of a scoped run, can no
// longer complete a packet inside the horizon: every periodic tick it
// had so far was released and completed (released counts ticks, so
// jittered releases still pending keep it false), and no tick remains
// before the horizon or under the packet cap. Latency is measured from
// the jittered release and jitter only delays a release, so from then
// on the flow's Result row is final.
func (e *Engine) targetDone(f int) bool {
	return e.released[f] == e.res.Completed[f] &&
		(e.nextRelease[f] >= e.cfg.Duration ||
			e.cfg.MaxPacketsPerFlow > 0 && e.released[f] >= e.cfg.MaxPacketsPerFlow)
}

// run is the event-driven main loop. Each executed cycle does the same
// phases, in the same order, as the reference engine: deliver arrivals,
// release due packets, arbitrate, apply transfers. The difference is
// what it does NOT do: flows are only visited when their release heap
// entry is due, links are only arbitrated when marked dirty, and when a
// cycle ends with nothing dirty, t jumps straight to the next event
// (earliest arrival, release, or link wakeup) — by construction no
// state can change in between, so the skip is unobservable. A
// target-scoped run ends at the top of the cycle after its target is
// done, a busy-period run at the top of the cycle after the network
// drains.
func (e *Engine) run() {
	for i := 0; i < e.n; i++ {
		e.relPush(e.nextRelease[i], int32(i))
	}
	t := noc.Cycles(0)
	for ; t < e.cfg.Duration && !e.stop; t++ {
		// 1. Deliver flits whose link traversal completes at t. Each
		// delivery marks the link the landing FIFO feeds as dirty, and
		// on multi-cycle links the link it crossed, now no longer busy.
		// The ring drops the flits delivered before t first, so this
		// cycle's landings, arrivals[landed:arrivalHead], stay readable
		// until the lock pre-filter has compared them.
		if e.arrivalHead == len(e.arrivals) && e.arrivalHead > 0 {
			e.arrivals = e.arrivals[:0]
			e.arrivalHead = 0
		} else if e.arrivalHead > 64 && e.arrivalHead*2 >= len(e.arrivals) {
			n := copy(e.arrivals, e.arrivals[e.arrivalHead:])
			e.arrivals = e.arrivals[:n]
			e.arrivalHead = 0
		}
		landed := e.arrivalHead
		for e.arrivalHead < len(e.arrivals) && e.arrivals[e.arrivalHead].at <= t {
			a := e.arrivals[e.arrivalHead]
			e.arrivalHead++
			e.deliver(a)
		}
		// 2. Timed link wakeups: headers whose routing delay elapses
		// at t.
		for len(e.wakeHeap) > 0 && e.wakeHeap[0].at <= t {
			l := e.wakeHeap[0].link
			e.wakePop()
			e.markDirty(int(l))
		}
		// 3. Release periodic packets of the flows whose next source
		// event is due. The heap pops same-cycle flows in flow-index
		// order, so the shared jitter stream is consumed exactly as the
		// reference engine's per-cycle flow scan consumes it.
		for len(e.relHeap) > 0 && e.relHeap[0].at <= t {
			i := int(e.relHeap[0].flow)
			e.relPop()
			e.processReleases(i, t)
		}
		// 4. Cycle skip: if no link's inputs changed, arbitration at t
		// (and at every cycle before the next event) is a no-op.
		if e.nDirty == 0 {
			if e.stop {
				continue // end at t+1, not after a skip
			}
			next := e.cfg.Duration
			if e.arrivalHead < len(e.arrivals) && e.arrivals[e.arrivalHead].at < next {
				next = e.arrivals[e.arrivalHead].at
			}
			if len(e.wakeHeap) > 0 && e.wakeHeap[0].at < next {
				next = e.wakeHeap[0].at
			}
			if len(e.relHeap) > 0 && e.relHeap[0].at < next {
				next = e.relHeap[0].at
			}
			// Cycles t..next−1 transfer nothing; each matches the set
			// linkl cycles earlier when nothing landed in it, and only t
			// can have had landings.
			if e.arrivalHead != landed {
				e.streak = 0
			} else {
				e.streak += max(next-t, 1)
			}
			if next > t+1 {
				t = next - 1 // loop increment lands on the event
			}
			continue
		}
		// 5. Arbitrate the dirty links in ascending link order (the
		// reference engine scans links in id order; transfer application
		// and trace emission must match it). Highest-priority eligible
		// candidate (head flit, routed, with downstream credit) wins.
		// The dirty set is swapped with the empty spare first: marks
		// made while arbitrating and transferring accumulate for cycle
		// t+1. Scanning the set bits of each word low to high visits
		// the links in ascending id, and clears the spare as it goes.
		e.dirty, e.arbSet = e.arbSet, e.dirty
		e.nDirty = 0
		e.transfers = e.transfers[:0]
		for w, word := range e.arbSet {
			if word == 0 {
				continue
			}
			e.arbSet[w] = 0
			for ; word != 0; word &= word - 1 {
				l := w<<6 | bits.TrailingZeros64(word)
				if e.busyUntil[l] > t {
					// Still busy: the transfer's delivery, due when the
					// busy period ends, marks the link again.
					continue
				}
				won := false
				minReady := maxCycles
				for _, c := range e.onLink[l] {
					ok, ready := e.eligible(c, t)
					if ok {
						e.transfers = append(e.transfers, c)
						won = true
						break
					}
					if ready < minReady {
						minReady = ready
					}
				}
				if !won && minReady < maxCycles {
					// Blocked only by routing delay: revisit when the
					// earliest header becomes ready.
					e.scheduleWake(minReady, l, t)
				}
			}
		}
		// 6. Apply the transfers decided this cycle simultaneously.
		// Freed credits mark the upstream links for cycle t+1, as does a
		// transfer its own link when linkl is 1.
		for _, c := range e.transfers {
			e.transfer(c, t)
		}
		if e.cfg.checkInvariants {
			e.checkInvariants(t)
		}
		// 7. Locked-arbitration fast path: if the transfers of the last
		// linkl cycles repeated those of the linkl cycles before and
		// provably repeat for m more rounds of linkl cycles (no release
		// or wake due, every winner keeps flits and credits, every
		// blocked contender stays blocked), apply those rounds in one
		// bulk step and jump t forward (DESIGN.md §13). The flits that
		// landed at t are the transfer set of t−linkl.
		if e.cfg.TraceWriter == nil {
			e.trackLock(e.arrivals[landed:e.arrivalHead])
			if e.streak >= e.linkl && len(e.transfers) > 0 && !e.stop {
				t += e.tryLockBatch(t)
			}
		}
	}
	if e.cfg.stopFlow > 0 || e.cfg.busyPeriod {
		e.res.Stats.StoppedAt = t
	}
	if e.res.Stats.recurrence > 0 {
		e.extrapolate()
	}
	e.res.InFlight = e.inFlight
	e.flushTrace()
}

func (e *Engine) markDirty(l int) {
	if w, bit := l>>6, uint64(1)<<(l&63); e.dirty[w]&bit == 0 {
		e.dirty[w] |= bit
		e.nDirty++
	}
}

// processReleases runs flow i's source: periodic ticks due at t (with
// jitter sampling), then jittered releases that became due, then
// re-schedules the flow's next event on the release heap. The body is
// the reference engine's per-flow phase 2, verbatim.
func (e *Engine) processReleases(i int, t noc.Cycles) {
	f := &e.flows[i]
	for e.nextRelease[i] <= t {
		if e.cfg.MaxPacketsPerFlow > 0 && e.released[i] >= e.cfg.MaxPacketsPerFlow {
			break
		}
		e.released[i]++
		relAt := e.nextRelease[i]
		if e.cfg.InjectJitter && f.Jitter > 0 {
			relAt += noc.Cycles(e.jitter.Int63n(int64(f.Jitter) + 1))
			if e.pending[i].len() > 0 && relAt < e.pending[i].back() {
				relAt = e.pending[i].back()
			}
		}
		if relAt <= t {
			e.releasePacket(i, relAt)
		} else {
			e.pending[i].push(relAt)
		}
		e.nextRelease[i] += f.Period
	}
	for e.pending[i].len() > 0 && e.pending[i].front() <= t {
		e.releasePacket(i, e.pending[i].pop())
	}
	next := maxCycles
	if !(e.cfg.MaxPacketsPerFlow > 0 && e.released[i] >= e.cfg.MaxPacketsPerFlow) {
		next = e.nextRelease[i]
	}
	if e.pending[i].len() > 0 && e.pending[i].front() < next {
		next = e.pending[i].front()
	}
	if next < maxCycles {
		e.relPush(next, int32(i))
	}
}

// releasePacket makes a packet of flow i available for injection at
// cycle relAt (its latency is measured from relAt) and marks the flow's
// injection link dirty.
func (e *Engine) releasePacket(i int, relAt noc.Cycles) {
	var p int32
	if n := len(e.freePkts); n > 0 {
		p = e.freePkts[n-1]
		e.freePkts = e.freePkts[:n-1]
	} else {
		p = int32(len(e.pkts))
		e.pkts = append(e.pkts, packet{})
	}
	e.pkts[p] = packet{
		release: relAt,
		id:      e.pktSeq[i],
		length:  int32(e.flows[i].Length),
	}
	e.pktSeq[i]++
	e.res.Released[i]++
	e.inFlight++
	e.queue[i].push(p)
	e.markDirty(int(e.routes[i][0]))
}

// eligible reports whether candidate c can transfer a flit this cycle.
// When the only obstacle is a header still being routed, it also
// returns the cycle the header becomes ready (else maxCycles), so the
// arbiter can schedule a precise wakeup.
func (e *Engine) eligible(c cand, t noc.Cycles) (bool, noc.Cycles) {
	if c.hop == 0 {
		// Injection: the source node offers the next flit of its oldest
		// pending packet.
		if e.queue[c.flow].len() == 0 {
			return false, maxCycles
		}
		return e.fifos[c.flow][0].occupancy() < e.buf, maxCycles
	}
	f := &e.fifos[c.flow][c.hop-1]
	if f.len() == 0 {
		return false, maxCycles
	}
	if ra := f.peek().readyAt; ra > t {
		return false, ra // header still being routed
	}
	if int(c.hop) == e.routes[c.flow].Len()-1 {
		return true, maxCycles // ejection into the node: always consumes
	}
	return e.fifos[c.flow][c.hop].occupancy() < e.buf, maxCycles
}

// transfer moves one flit of candidate c onto its link at cycle t,
// keeping the link busy for linkl cycles. When it pops a FIFO it marks
// the upstream link (which just regained a credit) dirty.
func (e *Engine) transfer(c cand, t noc.Cycles) {
	route := e.routes[c.flow]
	l := route[c.hop]
	var fl flit
	if c.hop == 0 {
		q := &e.queue[c.flow]
		pi := q.peek()
		p := &e.pkts[pi]
		fl = flit{pkt: pi, seq: p.injected}
		p.injected++
		if p.injected == p.length {
			q.pop()
		}
		e.flitsLive++
	} else {
		fl = e.fifos[c.flow][c.hop-1].pop()
		// The pop freed a slot in fifos[c.flow][c.hop-1], the buffer
		// gating the previous hop's link.
		e.markDirty(int(route[c.hop-1]))
	}
	if int(c.hop) < route.Len()-1 {
		e.fifos[c.flow][c.hop].inflight++
	}
	e.busyUntil[l] = t + e.linkl
	if e.linkl == 1 {
		// The busy period ends at t+1: re-arm now, so the dirty set left
		// by this cycle names the link. Longer busy periods end with the
		// flit's delivery, which marks the link then.
		e.markDirty(int(l))
	}
	e.arrivals = append(e.arrivals, arrival{at: t + e.linkl, flow: c.flow, hop: c.hop, fl: fl})
	if e.cfg.TraceWriter != nil {
		e.traceLine(t, int64(l), int(c.flow), e.pkts[fl.pkt].id, int(fl.seq))
	}
}

// deliver completes a link traversal: the flit lands in the next VC
// buffer (marking the link that buffer feeds dirty), or in the
// destination node when the link was the ejection one (recycling the
// packet once its last flit arrives). Every transfer lasts linkl
// cycles, so the crossed link's busy period ends now; on multi-cycle
// links that re-arms it here (transfer re-arms one-cycle links).
func (e *Engine) deliver(a arrival) {
	route := e.routes[a.flow]
	if e.linkl > 1 {
		e.markDirty(int(route[a.hop]))
	}
	if int(a.hop) == route.Len()-1 {
		// Ejected: consumed by the destination node.
		p := &e.pkts[a.fl.pkt]
		p.arrived++
		e.flitsLive--
		if p.arrived == p.length {
			e.completePacket(int(a.flow), a.fl.pkt, a.at)
		}
		return
	}
	f := &e.fifos[a.flow][a.hop]
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
	e.markDirty(int(route[a.hop+1]))
}

// completePacket records the completion of the packet at slab index p,
// of flow flow, whose last flit arrived at cycle at, and recycles the
// packet's slot.
func (e *Engine) completePacket(flow int, p int32, at noc.Cycles) {
	e.inFlight--
	lat := at - e.pkts[p].release
	e.res.Completed[flow]++
	e.res.TotalLatency[flow] += lat
	if lat > e.res.WorstLatency[flow] {
		e.res.WorstLatency[flow] = lat
	}
	if lat > e.flows[flow].Deadline {
		e.res.DeadlineMisses[flow]++
	}
	if e.cfg.RecordLatencies {
		e.res.Latencies[flow] = append(e.res.Latencies[flow], lat)
	}
	e.freePkts = append(e.freePkts, p)
	// A completion inside a fast-path batch never empties the network:
	// the ejecting winner still holds flits of an undelivered packet. So
	// a busy-period run's stop never falls inside a batch.
	if flow == e.cfg.stopFlow-1 && e.targetDone(flow) ||
		e.inFlight == 0 && e.cfg.busyPeriod {
		e.stop = true
	}
	if e.recur && !e.stop {
		if flow == e.cfg.stopFlow-1 {
			e.cutLog = append(e.cutLog, cutEvent{at: at, lat: lat})
		}
		if e.inFlight == 0 {
			e.drained(at)
		}
	}
}

// trackLock advances the lock pre-filter past an executed cycle: streak
// grows when the cycle's transfer set equals landed, the flits that
// landed in it, which are the transfer set of linkl cycles earlier
// (every transfer takes linkl cycles), and restarts otherwise.
func (e *Engine) trackLock(landed []arrival) {
	if len(landed) != len(e.transfers) {
		e.streak = 0
		return
	}
	for k, c := range e.transfers {
		if landed[k].flow != c.flow || landed[k].hop != c.hop {
			e.streak = 0
			return
		}
	}
	e.streak++
}

// winnerIdx returns the index in win of (flow, hop), or -1 when it is
// not a window winner. Valid only while winnerOf is populated (inside
// tryLockBatch).
func (e *Engine) winnerIdx(flow, hop int32) int32 {
	wk := e.winnerOf[e.routes[flow][hop]]
	if wk >= 0 && e.win[wk].flow == flow && e.win[wk].hop == hop {
		return wk
	}
	return -1
}

// tryLockBatch is the locked-arbitration fast path (DESIGN.md §13).
// Called after phase 6 of an executed cycle t with transfers once the
// transfers of the window (t−linkl, t] repeated those of the linkl
// cycles before, it computes the largest m such that the next m rounds
// of linkl cycles provably repeat the window — every winner keeps a flit
// to send, a credit to send it into, and its priority; every other
// contender of every link that will be (re-)arbitrated stays
// ineligible; and no release or wake falls inside — then applies those
// m·linkl cycles in one bulk step and returns their number (0 when no
// batch of at least 2 cycles exists). The window's winners are exactly
// the flits in flight: a link carries one flit per linkl cycles, so the
// arrival ring holds one per winner, in transfer order, each landing
// linkl cycles after its window transfer.
func (e *Engine) tryLockBatch(t noc.Cycles) noc.Cycles {
	L := e.linkl
	// end is the last cycle the batch may cover: inside the horizon and
	// short of the next source event (a release changes some link's
	// contender set) and of the next header wake.
	end := e.cfg.Duration - 1
	if len(e.relHeap) > 0 {
		end = min(end, e.relHeap[0].at-1)
	}
	if len(e.wakeHeap) > 0 {
		end = min(end, e.wakeHeap[0].at-1)
	}
	// A batch covers at least 2 cycles: one round of a one-cycle link is
	// just the normal path with extra bookkeeping.
	minEnd := t + max(L, 2)
	if end < minEnd {
		return 0
	}
	win := e.arrivals[e.arrivalHead:]
	e.win = win
	for k, a := range win {
		e.winnerOf[e.routes[a.flow][a.hop]] = int32(k)
	}
	// The winners' own bounds first: they end about half the attempts,
	// and cost less than the contender scan.
	for k := range win {
		if end = min(end, e.winnerEnd(k)); end < minEnd {
			break
		}
	}
	if end >= minEnd {
		// The analysis set: the links the per-cycle path would arbitrate
		// during the batch. They are the dirty ones (arbitrated at t+1)
		// and, per winner, its own link, the upstream link its pops re-arm
		// and the downstream link its deliveries re-arm; a batch cycle
		// changes no other link's inputs. arbSet, all-zero outside
		// arbitration, holds the set and is cleared as it is scanned.
		A := e.arbSet
		copy(A, e.dirty)
		for _, a := range win {
			route := e.routes[a.flow]
			l := int(route[a.hop])
			A[l>>6] |= 1 << (l & 63)
			if a.hop > 0 {
				l = int(route[a.hop-1])
				A[l>>6] |= 1 << (l & 63)
			}
			if int(a.hop)+1 < route.Len() {
				l = int(route[a.hop+1])
				A[l>>6] |= 1 << (l & 63)
			}
		}
		for w, word := range A {
			if word == 0 {
				continue
			}
			A[w] = 0
			for ; word != 0 && end >= minEnd; word &= word - 1 {
				end = e.analyzeLink(w<<6|bits.TrailingZeros64(word), t, end)
			}
		}
	}
	m := (end - t) / L
	if end >= minEnd {
		e.bulkApply(m, t) // needs winnerOf populated
	}
	for _, a := range win {
		e.winnerOf[e.routes[a.flow][a.hop]] = -1
	}
	e.win = nil
	if end < minEnd {
		return 0
	}
	e.res.Stats.FastPathBatches++
	e.res.Stats.FastPathCycles += m * L
	if e.cfg.checkInvariants {
		e.checkInvariants(t + m*L)
	}
	return m * L
}

// analyzeLink lowers end, the last cycle of the batch, to the last cycle
// through which link l provably repeats its window outcome. The
// contenders examined before a window winner, which has bounded end
// already (lower-priority ones are never examined while it stays
// eligible), and every contender of a winnerless link must stay
// ineligible; on a winnerless link none may
// hold a header still routing after t+1, whose wake the link's batch
// arbitrations would schedule: the batch is dropped, so no batch ever
// touches the wake heap. (Such a header's pending wake bounds the batch
// short of its readiness anyway, and below two cycles unless routl
// exceeds 3.)
func (e *Engine) analyzeLink(l int, t, end noc.Cycles) noc.Cycles {
	wk := e.winnerOf[l]
	for _, c := range e.onLink[l] {
		if wk >= 0 && e.win[wk].flow == c.flow && e.win[wk].hop == c.hop {
			return end
		}
		end = min(end, e.blockedUntil(c, t)-1)
		if wk < 0 && c.hop > 0 {
			if up := &e.fifos[c.flow][c.hop-1]; up.len() > 0 && up.peek().readyAt > t+1 {
				return t
			}
		}
	}
	return end
}

// winnerEnd returns the last cycle through which window winner k keeps
// its slot, transferring once a round from the cycle its flit in flight
// lands on. The transfers it can still make are limited by the flits its
// packet has left on this hop (a batch never crosses a packet boundary),
// by the buffered supply when the upstream hop is not also transferring,
// and by downstream credit when the downstream hop is not also draining;
// there are none when the next flit is not there and routed, or no
// credit is free, at its first transfer. State is read after cycle t.
func (e *Engine) winnerEnd(k int) noc.Cycles {
	s := &e.win[k] // s.at is the winner's first transfer in the batch
	i, h := s.flow, s.hop
	route := e.routes[i]
	n := noc.Cycles(0)
	if h == 0 {
		if q := &e.queue[i]; q.len() > 0 {
			p := &e.pkts[q.peek()]
			n = noc.Cycles(p.length - p.injected)
		}
	} else {
		up := &e.fifos[i][h-1]
		feeder := e.winnerIdx(i, h-1)
		var next flit
		ready := maxCycles
		if up.len() > 0 {
			next = *up.peek()
			ready = next.readyAt
		} else if feeder >= 0 {
			// The stream continues with the feeder's in-flight flit.
			a := &e.win[feeder]
			next, ready = a.fl, a.at
			if next.seq == 0 {
				ready += e.routl
			}
		}
		if ready <= s.at {
			n = noc.Cycles(e.pkts[next.pkt].length - next.seq)
			if feeder < 0 {
				n = min(n, noc.Cycles(up.len()))
			}
		}
	}
	if int(h) < route.Len()-1 {
		occ := e.fifos[i][h].occupancy()
		if d := e.winnerIdx(i, h+1); d < 0 {
			n = min(n, noc.Cycles(e.buf-occ))
		} else if occ >= e.buf && e.win[d].at >= s.at {
			// The downstream hop drains one flit a round, so the credit
			// seen at the first transfer recurs each round; it is free when
			// the buffer is, or when the drain comes first in the round.
			n = 0
		}
	}
	return s.at + n*e.linkl - 1
}

// blockedUntil returns the first cycle after t at which the non-winning
// contender c may be eligible, or maxCycles when it stays ineligible
// until an event outside the batch: a release (bounded by the release
// heap) or a transfer by a contender that itself stays blocked. A header
// still being routed is blocked until its readyAt; a header about to land
// in an empty buffer bounds the batch at its landing, whose arbitration
// would schedule a wake.
func (e *Engine) blockedUntil(c cand, t noc.Cycles) noc.Cycles {
	i, g := c.flow, c.hop
	route := e.routes[i]
	at := t + 1 // the first cycle c has a routed flit to offer
	if g == 0 {
		if e.queue[i].len() == 0 {
			return maxCycles // refilled only by a release
		}
	} else if up := &e.fifos[i][g-1]; up.len() > 0 {
		at = max(at, up.peek().readyAt)
	} else if feeder := e.winnerIdx(i, g-1); feeder >= 0 {
		a := &e.win[feeder]
		if at = a.at; a.fl.seq == 0 {
			return at
		}
	} else {
		return maxCycles // nothing buffered, feeder not transferring
	}
	// Ejection always consumes; otherwise credit must be free now or be
	// freed by the downstream hop's own transfers in the batch. A full
	// buffer whose consumer does not transfer stays full.
	if int(g) == route.Len()-1 || e.fifos[i][g].occupancy() < e.buf || e.winnerIdx(i, g+1) >= 0 {
		return at
	}
	return maxCycles
}

// bulkApply executes the next m rounds of linkl cycles, each repeating
// the window's transfers, in one step. Winner k, whose flit in flight
// lands at cycle a, transfers at a, a+linkl, …, a+(m−1)·linkl; that flit
// and its first m−1 batch flits land a round apart from a on, while its
// last one is in flight at the end. Winners are processed per flow in
// increasing hop order so upstream landings are in a buffer before the
// downstream hop pops them; cross-flow winners touch disjoint state. The
// arrival ring, busy periods and dirty set are left as cycle t+m·linkl
// leaves them (no arbitration in the batch schedules a wake, so the wake
// heap needs no change), and the normal loop resumes at t+m·linkl+1
// unchanged.
func (e *Engine) bulkApply(m, t noc.Cycles) {
	win := e.win
	L := e.linkl
	mi := int(m)
	ord := e.batchOrder[:0]
	for k := range win {
		ord = append(ord, int32(k))
	}
	for a := 1; a < len(ord); a++ {
		for b := a; b > 0; b-- {
			x, y := &win[ord[b]], &win[ord[b-1]]
			if x.flow > y.flow || (x.flow == y.flow && x.hop > y.hop) {
				break
			}
			ord[b], ord[b-1] = ord[b-1], ord[b]
		}
	}
	e.batchOrder = ord
	if cap(e.lastFlits) < len(win) {
		e.lastFlits = make([]flit, len(win))
	}
	lasts := e.lastFlits[:len(win)]
	for _, k := range ord {
		// rf is this winner's flit in flight after cycle t, the first of
		// the m flits it lands during the batch; the flits it transfers
		// during the batch are the next m of its stream.
		rf := win[k]
		i, h := rf.flow, rf.hop
		route := e.routes[i]
		var pops []flit
		if h == 0 {
			// Source: inject the next m flits of the head packet (m is at
			// most its remaining length, so int32 holds it).
			q := &e.queue[i]
			pi := q.peek()
			p := &e.pkts[pi]
			s0 := p.injected
			p.injected += int32(mi)
			if p.injected == p.length {
				q.pop()
			}
			e.flitsLive += mi
			lasts[k] = flit{pkt: pi, seq: s0 + int32(mi) - 1}
		} else {
			up := &e.fifos[i][h-1]
			pops = up.flits[up.head : up.head+mi]
			up.head += mi
			lasts[k] = pops[mi-1]
		}
		if int(h) == route.Len()-1 {
			// Ejection: rf and the first m−1 pops leave the network. rf may
			// be the last flit of a previous packet, completing it as it
			// lands; the pops all belong to the current head packet and
			// cannot complete it inside the batch (the no-boundary bound
			// keeps its last flit out).
			pOld := &e.pkts[rf.fl.pkt]
			if rf.fl.seq == pOld.length-1 {
				pOld.arrived++
				e.completePacket(int(i), rf.fl.pkt, rf.at)
				e.pkts[pops[0].pkt].arrived += int32(mi - 1)
			} else {
				pOld.arrived += int32(mi)
			}
			e.flitsLive -= mi
			continue
		}
		// The buffer's length after each landing: it grows by one a round
		// unless the downstream hop drains it as fast, and then holds at
		// its length now, plus one while the drain comes later in the
		// round than the landing.
		F := &e.fifos[i][h]
		occ := F.len() + mi
		if d := e.winnerIdx(i, h+1); d >= 0 {
			occ = F.len()
			if win[d].at >= rf.at {
				occ++
			}
		}
		if occ > e.res.MaxOccupancy[i][h] {
			e.res.MaxOccupancy[i][h] = occ
		}
		// Land rf and the first m−1 batch flits a round apart, ready on
		// arrival; only rf and the first batch flit can be headers, which
		// pay the routing latency as deliver charges it.
		dst := F.extend(mi)
		dst[0] = rf.fl
		if h == 0 {
			for j := 1; j < mi; j++ {
				dst[j] = flit{pkt: lasts[k].pkt, seq: lasts[k].seq - int32(mi-j)}
			}
		} else {
			copy(dst[1:], pops[:mi-1])
		}
		at := rf.at
		for j := range dst {
			dst[j].readyAt = at
			at += L
		}
		for j := 0; j < min(2, mi); j++ {
			if dst[j].seq == 0 {
				dst[j].readyAt += e.routl
			}
		}
	}
	// Each winner's last batch flit is in flight, landing m rounds after
	// the flit it replaces, and keeps its link busy until then. The ring
	// stays in transfer order.
	shift := m * L
	for k := range win {
		win[k].at += shift
		win[k].fl = lasts[k]
		e.busyUntil[e.routes[win[k].flow][win[k].hop]] = win[k].at
	}
	// The dirty set cycle t+m·linkl leaves: the marks of its transfers,
	// made by the winners whose flit lands at t+m·linkl+linkl. Its
	// arbitrations mark nothing: no header waits on a winnerless link.
	clear(e.dirty)
	e.nDirty = 0
	for _, a := range win {
		if a.at != t+shift+L {
			continue
		}
		route := e.routes[a.flow]
		if a.hop > 0 {
			e.markDirty(int(route[a.hop-1]))
		}
		if L == 1 {
			e.markDirty(int(route[a.hop]))
		}
	}
}

// checkInvariants panics when the engine state at the end of cycle t
// breaks a model invariant: per VC, buffered plus in-flight flits within
// the depth, flits in stream order (consecutive seq within a packet,
// packets in release order); the in-flight counts matching the arrival
// ring; and flitsLive counting exactly the flits in buffers and in
// transit. It runs only when Config.checkInvariants is set.
func (e *Engine) checkInvariants(t noc.Cycles) {
	live, inflight := len(e.arrivals)-e.arrivalHead, 0
	for _, a := range e.arrivals[e.arrivalHead:] {
		if int(a.hop) < e.routes[a.flow].Len()-1 {
			inflight++
		}
	}
	for i := range e.fifos {
		for h := range e.fifos[i] {
			f := &e.fifos[i][h]
			if f.inflight < 0 || f.occupancy() > e.buf {
				panic(fmt.Sprintf("sim: cycle %d: flow %d hop %d holds %d flits and %d in flight, depth %d",
					t, i, h, f.len(), f.inflight, e.buf))
			}
			live += f.len()
			inflight -= f.inflight
			for j := f.head + 1; j < len(f.flits); j++ {
				a, b := f.flits[j-1], f.flits[j]
				if a.pkt == b.pkt && b.seq == a.seq+1 {
					continue
				}
				if a.pkt != b.pkt && a.seq == e.pkts[a.pkt].length-1 && b.seq == 0 &&
					e.pkts[b.pkt].id == e.pkts[a.pkt].id+1 {
					continue
				}
				panic(fmt.Sprintf("sim: cycle %d: flow %d hop %d buffers packet %d flit %d before packet %d flit %d",
					t, i, h, e.pkts[a.pkt].id, a.seq, e.pkts[b.pkt].id, b.seq))
			}
		}
	}
	if inflight != 0 {
		panic(fmt.Sprintf("sim: cycle %d: buffers count %d more in-flight flits than the arrival ring", t, -inflight))
	}
	if live != e.flitsLive {
		panic(fmt.Sprintf("sim: cycle %d: %d flits in buffers and in transit, flitsLive %d", t, live, e.flitsLive))
	}
}

// traceLine appends one CSV trace record to the reusable trace buffer,
// flushing to the configured writer at the high-water mark. strconv
// appends into the retained buffer, so tracing allocates nothing per
// flit.
func (e *Engine) traceLine(t noc.Cycles, l int64, flow, pkt, seq int) {
	b := e.traceBuf
	b = strconv.AppendInt(b, int64(t), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, l, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(flow), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(pkt), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(seq), 10)
	b = append(b, '\n')
	e.traceBuf = b
	if len(b) >= traceFlushSize {
		e.flushTrace()
	}
}

func (e *Engine) flushTrace() {
	if len(e.traceBuf) > 0 && e.cfg.TraceWriter != nil {
		e.cfg.TraceWriter.Write(e.traceBuf)
		e.traceBuf = e.traceBuf[:0]
	}
}

// relPush inserts flow flow's next source event; the heap orders by
// (at, flow) so same-cycle releases pop in flow-index order.
func (e *Engine) relPush(at noc.Cycles, flow int32) {
	h := append(e.relHeap, relEvent{at: at, flow: flow})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at < h[i].at || (h[p].at == h[i].at && h[p].flow <= h[i].flow) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	e.relHeap = h
}

func (e *Engine) relPop() {
	h := e.relHeap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && (h[r].at < h[c].at || (h[r].at == h[c].at && h[r].flow < h[c].flow)) {
			c = r
		}
		if h[i].at < h[c].at || (h[i].at == h[c].at && h[i].flow < h[c].flow) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	e.relHeap = h
}

// scheduleWake arranges for link l to be re-arbitrated at cycle at,
// given the current cycle t. A wake due at the very next cycle goes
// straight into the dirty set for t+1 (the set is non-empty, so the
// skip cannot jump past it) instead of bouncing through the heap.
// Later wakes are heaped; linkWakeAt suppresses pushes at or after an
// already-pending wakeup, so a hot link contributes O(1) live heap
// entries.
func (e *Engine) scheduleWake(at noc.Cycles, l int, t noc.Cycles) {
	if at <= t+1 {
		e.markDirty(l)
		return
	}
	if e.linkWakeAt[l] <= at {
		return
	}
	e.linkWakeAt[l] = at
	h := append(e.wakeHeap, linkEvent{at: at, link: int32(l)})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	e.wakeHeap = h
}

func (e *Engine) wakePop() {
	h := e.wakeHeap
	if e.linkWakeAt[h[0].link] == h[0].at {
		e.linkWakeAt[h[0].link] = maxCycles
	}
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].at < h[c].at {
			c = r
		}
		if h[i].at <= h[c].at {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	e.wakeHeap = h
}

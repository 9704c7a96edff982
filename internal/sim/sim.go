// Package sim is a cycle-accurate, flit-level simulator of the
// priority-preemptive wormhole NoC of Section II of the paper.
//
// It models exactly the router of Figure 1: per-priority virtual channels
// (one FIFO of buf(Ξ) flits per VC at each input port), credit-based flow
// control (a flit advances only when the downstream VC buffer has space),
// and per-output-link priority-preemptive arbitration: every cycle, each
// link transfers the flit of the highest-priority packet that requests it
// *and* holds a credit; a blocked high-priority packet with full buffers
// lets lower-priority packets proceed. Header flits pay the routing
// latency routl(Ξ) at every router, and every link transfer takes
// linkl(Ξ) cycles.
//
// The simulator is used to reproduce the "sim" columns of Table II (the
// worst observed latencies under multi-point progressive blocking) and to
// validate the analytical bounds: on every scenario, observed latencies
// must stay below the IBN and XLWX bounds, while they can exceed the
// (unsafe) SB bound.
//
// Two engines live here. Engine is the production one: event-driven
// (it skips straight across cycles in which nothing can move, and only
// re-arbitrates links whose inputs changed) and reusable (build it once
// with NewEngine; every Engine.Run recycles its buffers, so steady-state
// searches allocate nothing).
// RunReference is the retained straightforward cycle-scanning engine;
// the two are held bit-identical by a differential test suite and the
// verification oracle's divergence invariant (DESIGN.md §10).
//
// SearchWorstCase's probes are target-scoped: each ends once its target
// can no longer complete a packet inside the horizon. Jitter-free probes
// of systems with short hyperperiods or small key spaces also walk a
// BusyPeriodTable, which stores every busy period they simulate, keyed
// by the phasing it starts from, so probes sharing the table simulate
// each busy period once (DESIGN.md §10, "Busy-period table"). A search
// simulates only its target's influence set, the flows that can reach
// it through shared links, on a Restrict-ed system, replaying the
// dropped flows' jitter draws (DESIGN.md §10, "Influence-restricted
// searches").
package sim

import (
	"fmt"
	"io"
	"math"

	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
)

// Config parameterises one simulation run.
type Config struct {
	// Duration is the number of simulated cycles. Packets still in flight
	// when the horizon is reached are not counted in latency statistics
	// (Result.InFlight reports them).
	Duration noc.Cycles
	// Offsets holds the first-release instant of each flow (default 0).
	// Successive packets are released periodically from the offset.
	Offsets []noc.Cycles
	// MaxPacketsPerFlow stops releasing packets of a flow after this many
	// (0 = release for the whole duration).
	MaxPacketsPerFlow int
	// RecordLatencies makes the Result keep every completed packet's
	// latency (Result.Latencies), enabling distribution statistics at the
	// cost of memory proportional to the number of packets.
	RecordLatencies bool
	// InjectJitter enables release jitter: each packet of a flow with
	// Jitter J > 0 is released uniformly in [tick, tick+J] after its
	// periodic tick, deterministically in JitterSeed. Latencies are
	// measured from the actual (jittered) release, matching the analyses'
	// convention (an interferer's jitter appears in the interference
	// terms; a flow's own jitter does not extend its own bound).
	InjectJitter bool
	// JitterSeed seeds the jitter sampler (used only with InjectJitter).
	JitterSeed int64
	// TraceWriter, when non-nil, receives one CSV line per flit transfer:
	// cycle,link,flow,packet,flit. Lines are batched in an internal
	// buffer and flushed when it fills and at the end of the run, so
	// tracing no longer allocates or issues a Write per flit.
	TraceWriter io.Writer

	// stopFlow is 0 for a full-horizon run, or f+1 to make the run
	// target-scoped for flow f: it ends as soon as f can no longer
	// complete a packet inside the horizon (Engine.targetDone). Flow f's
	// Result row is exactly the full run's; the other rows and InFlight
	// are partial. Only SearchWorstCase sets it, for probes that read
	// nothing but the target's worst latency.
	stopFlow int
	// table, on a target-scoped run that is jitter-free, uncapped,
	// untraced and unrecorded, is the busy-period table the run walks
	// (DESIGN.md §10). Only SearchWorstCase sets it.
	table *BusyPeriodTable
	// replay, on a jittered run of an influence set's restricted system,
	// makes the run draw each kept flow the jitter the full system's run
	// draws it (jitterReplay). Only SearchWorstCase sets it.
	replay jitterReplay
	// busyPeriod ends the run at the top of the cycle after the network
	// first drains: after the first release, every released packet has
	// been delivered. Only Engine.RunBusyPeriod sets it.
	busyPeriod bool
	// checkInvariants makes Engine check its runtime invariants after
	// every executed cycle and every fast-path batch, panicking on a
	// breach. Tests set it; it costs nothing when off.
	checkInvariants bool
}

// Stats reports engine-internal execution counters. They describe how a
// result was computed, not what was observed: two runs that differ only
// in Stats simulated the identical system trajectory. The differential
// suite therefore compares Results with Stats ignored, and the retained
// reference engine always leaves it zero.
type Stats struct {
	// FastPathBatches counts locked-arbitration batches: stretches of
	// whole rounds of linkl cycles, on any platform, in which every
	// link's winner, credits and contender set provably repeated the
	// round before, executed as one bulk step instead of per-cycle
	// arbitration (DESIGN.md §13). Traced runs never batch.
	FastPathBatches int
	// FastPathCycles is the total number of simulated cycles covered by
	// those batches: a multiple of linkl per batch, and at least 2
	// cycles.
	FastPathCycles noc.Cycles
	// StoppedAt is the cycle a run that may stop early ended at: a
	// target-scoped run (a SearchWorstCase probe) or a busy-period run
	// (Engine.RunBusyPeriod). It is below Duration when the run stopped
	// early and Duration when it did not. Zero for runs that never stop
	// early (Run, Engine.Run).
	StoppedAt noc.Cycles
}

// Result holds the outcome of a run.
type Result struct {
	// WorstLatency[i] is the maximum observed latency (release to arrival
	// of the last flit) over the completed packets of flow i, or -1 when
	// none completed within the horizon.
	WorstLatency []noc.Cycles
	// TotalLatency[i] is the sum of observed latencies (for averages).
	TotalLatency []noc.Cycles
	// Completed[i] counts completed packets of flow i.
	Completed []int
	// Released[i] counts released packets of flow i.
	Released []int
	// InFlight counts packets not yet fully delivered at the horizon.
	InFlight int
	// DeadlineMisses[i] counts completed packets of flow i whose observed
	// latency exceeded the flow deadline.
	DeadlineMisses []int
	// Latencies[i] holds the latency of every completed packet of flow i
	// in completion order (only with Config.RecordLatencies).
	Latencies [][]noc.Cycles
	// MaxOccupancy[i][h] is the maximum number of flits of flow i ever
	// held in the virtual-channel buffer fed by hop h of its route
	// (h in [0, |route|-2]). Occupancy can never exceed the platform's
	// buffer depth — that is the credit-based flow control at work — and
	// watching it grow along the contention domain during a downstream
	// blocking is exactly the "buffered interference" of the paper.
	MaxOccupancy [][]int
	// Stats holds engine-internal execution counters. It is the one
	// Result field allowed to differ between engines: comparisons of
	// observable behaviour must ignore it (see Stats).
	Stats Stats
}

// PeakOccupancy returns the largest buffer occupancy flow i reached on
// any hop of its route.
func (r *Result) PeakOccupancy(i int) int {
	peak := 0
	for _, o := range r.MaxOccupancy[i] {
		if o > peak {
			peak = o
		}
	}
	return peak
}

// MeanLatency returns the average observed latency of flow i, or -1 when
// no packet of the flow completed.
func (r *Result) MeanLatency(i int) float64 {
	if r.Completed[i] == 0 {
		return -1
	}
	return float64(r.TotalLatency[i]) / float64(r.Completed[i])
}

func validateConfig(sys *traffic.System, cfg Config) error {
	if cfg.Duration < 1 {
		return fmt.Errorf("sim: Duration must be >= 1 cycle, got %d", cfg.Duration)
	}
	if cfg.Offsets != nil && len(cfg.Offsets) != sys.NumFlows() {
		return fmt.Errorf("sim: got %d offsets for %d flows", len(cfg.Offsets), sys.NumFlows())
	}
	for i, off := range cfg.Offsets {
		if off < 0 {
			return fmt.Errorf("sim: flow %d has negative offset %d", i, off)
		}
	}
	if cfg.table != nil {
		if err := cfg.table.bind(sys); err != nil {
			return err
		}
	}
	flows := sys.Flows()
	for i := range flows {
		f := &flows[i]
		// Engine flits number themselves with an int32: a longer packet
		// would wrap a body flit to seq 0, which pays routl as a header.
		if f.Length > math.MaxInt32 {
			return fmt.Errorf("sim: flow %d (%q) has %d-flit packets, more than the simulator's limit of %d",
				i, f.Name, f.Length, math.MaxInt32)
		}
		// Releases advance by T_i from instants below Duration, are
		// delayed by up to J_i and take C_i to deliver: past int64 the
		// release instant wraps negative.
		if noc.SatAdd(cfg.Duration, noc.SatAdd(noc.SatAdd(f.Period, f.Jitter), sys.C(i))) == noc.MaxCycles {
			return fmt.Errorf("sim: flow %d (%q): Duration %d + T %d + J %d + C %d overflows int64 cycles",
				i, f.Name, cfg.Duration, f.Period, f.Jitter, sys.C(i))
		}
	}
	return nil
}

// Run simulates the system for cfg.Duration cycles and reports the
// observed latencies. The flow set must have unique priorities (enforced
// by traffic.NewSystem). Each call builds a fresh Engine; callers running
// many simulations of the same system should build one Engine and reuse
// it (NewEngine / Engine.Run), which allocates nothing in steady state.
func Run(sys *traffic.System, cfg Config) (*Result, error) {
	if err := validateConfig(sys, cfg); err != nil {
		return nil, err
	}
	e := NewEngine(sys)
	e.reset(cfg)
	e.run()
	return e.res, nil
}

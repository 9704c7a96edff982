// Package wormnoc provides worst-case latency analysis and cycle-accurate
// simulation of real-time traffic on priority-preemptive wormhole
// networks-on-chip, reproducing
//
//	L. Soares Indrusiak, A. Burns, B. Nikolić,
//	"Buffer-aware bounds to multi-point progressive blocking in
//	priority-preemptive NoCs", DATE 2018.
//
// It implements the paper's proposed buffer-aware analysis (IBN) together
// with the baselines it is evaluated against (SB and XLWX), a flit-level
// simulator of the underlying router architecture, and workload
// generators for the paper's experiments.
//
// This package is the stable facade over the implementation packages in
// internal/; see the package documentation of internal/noc,
// internal/traffic, internal/core and internal/sim for the full model.
//
// # Quick start
//
//	topo, _ := wormnoc.NewMesh(4, 4, wormnoc.RouterConfig{
//		BufDepth: 2, LinkLatency: 1, RouteLatency: 0,
//	})
//	sys, _ := wormnoc.NewSystem(topo, []wormnoc.Flow{
//		{Name: "ctrl", Priority: 1, Period: 2000, Deadline: 2000, Length: 32, Src: 0, Dst: 15},
//		{Name: "video", Priority: 2, Period: 40000, Deadline: 40000, Length: 4096, Src: 1, Dst: 14},
//	})
//	res, _ := wormnoc.Analyze(sys, wormnoc.AnalysisOptions{Method: wormnoc.IBN})
//	for i := range res.Flows {
//		fmt.Println(sys.Flow(i).Name, res.R(i), res.Flows[i].Status)
//	}
package wormnoc

import (
	"io"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/priority"
	"wormnoc/internal/sim"
	"wormnoc/internal/trace"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// Platform model (see internal/noc).
type (
	// Cycles is a duration or instant in NoC clock cycles.
	Cycles = noc.Cycles
	// NodeID identifies a processing node of the mesh.
	NodeID = noc.NodeID
	// LinkID identifies one unidirectional link.
	LinkID = noc.LinkID
	// Route is the ordered set of links from a source to a destination.
	Route = noc.Route
	// RouterConfig holds the homogeneous router parameters buf(Ξ), vc(Ξ),
	// linkl(Ξ) and routl(Ξ).
	RouterConfig = noc.RouterConfig
	// Topology is a W×H 2D mesh with dimension-order routing.
	Topology = noc.Topology
	// RoutingPolicy selects XY (default) or YX dimension-order routing.
	RoutingPolicy = noc.RoutingPolicy
)

// Routing policies.
const (
	// RoutingXY routes along the X dimension first (the paper's setup).
	RoutingXY = noc.XY
	// RoutingYX routes along the Y dimension first.
	RoutingYX = noc.YX
)

// Traffic model (see internal/traffic).
type (
	// Flow is one real-time traffic flow τ = (P, C, T, D, J, src, dst).
	Flow = traffic.Flow
	// System binds a flow set to a topology with routes precomputed.
	System = traffic.System
)

// Analyses (see internal/core).
type (
	// Method selects a response-time analysis (SB, SLA, XLWX or IBN).
	Method = core.Method
	// AnalysisOptions configures an analysis run.
	AnalysisOptions = core.Options
	// AnalysisResult holds per-flow worst-case latency bounds.
	AnalysisResult = core.Result
	// FlowResult is the per-flow outcome of an analysis.
	FlowResult = core.FlowResult
	// FlowStatus classifies a per-flow analysis outcome.
	FlowStatus = core.FlowStatus
	// InterferenceSets exposes S^D, S^I and the upstream/downstream
	// partitions used by the analyses.
	InterferenceSets = core.Sets
)

// Analysis methods.
const (
	// SB is the Shi & Burns 2008 analysis (optimistic under MPB).
	SB = core.SB
	// XLWX is the safe Xiong et al. 2017 baseline (Equation 5).
	XLWX = core.XLWX
	// IBN is the paper's proposed buffer-aware analysis (Equations 6–8).
	IBN = core.IBN
	// SLA is the simplified stage-level baseline (unsafe under MPB).
	SLA = core.SLA
)

// Per-flow analysis outcomes.
const (
	// Schedulable: the bound converged within the deadline.
	Schedulable = core.Schedulable
	// DeadlineMiss: the bound exceeds the deadline.
	DeadlineMiss = core.DeadlineMiss
	// DependencyFailed: a required higher-priority bound is unavailable.
	DependencyFailed = core.DependencyFailed
	// Diverged: the fixed point did not converge within the iteration
	// cap, or its sum exceeded int64 cycles.
	Diverged = core.Diverged
)

// Simulation (see internal/sim).
type (
	// SimConfig parameterises a simulation run.
	SimConfig = sim.Config
	// SimResult reports observed latencies.
	SimResult = sim.Result
	// SimSweepResult aggregates a worst-case phasing search.
	SimSweepResult = sim.SweepResult
)

// NewMesh builds a W×H mesh topology with homogeneous routers.
func NewMesh(w, h int, cfg RouterConfig) (*Topology, error) {
	return noc.NewMesh(w, h, cfg)
}

// NewSystem validates a flow set against a topology and precomputes
// routes and zero-load latencies (Equation 1 of the paper).
func NewSystem(topo *Topology, flows []Flow) (*System, error) {
	return traffic.NewSystem(topo, flows)
}

// ZeroLoadLatency evaluates Equation 1 for a route of routeLen links and
// a packet of length flits.
func ZeroLoadLatency(cfg RouterConfig, routeLen, length int) Cycles {
	return traffic.ZeroLoadLatency(cfg, routeLen, length)
}

// BuildSets computes the interference sets of a system once, to be shared
// by several AnalyzeWithSets calls.
func BuildSets(sys *System) *InterferenceSets {
	return core.BuildSets(sys)
}

// Analyze computes worst-case response-time bounds for every flow under
// the selected analysis.
func Analyze(sys *System, opt AnalysisOptions) (*AnalysisResult, error) {
	return core.Analyze(sys, opt)
}

// AnalyzeWithSets is Analyze with pre-built interference sets.
func AnalyzeWithSets(sys *System, sets *InterferenceSets, opt AnalysisOptions) (*AnalysisResult, error) {
	return core.NewEngineWithSets(sys, sets).Analyze(opt)
}

// Engine runs analyses of one system repeatedly and cheaply: the
// interference sets are built once and the per-run working state is
// recycled. Safe for concurrent use.
type Engine = core.Engine

// Telemetry carries the engine's observability counters (fixed-point
// iterations, memo hits/misses, recursion depth, per-flow wall time).
type Telemetry = core.Telemetry

// NewEngine builds an analysis engine for the system.
func NewEngine(sys *System) *Engine {
	return core.NewEngine(sys)
}

// Simulate runs the cycle-accurate wormhole simulator over the system.
func Simulate(sys *System, cfg SimConfig) (*SimResult, error) {
	return sim.Run(sys, cfg)
}

// SweepOffsets searches for worst-case observed latencies by sweeping the
// release phase of one flow (the paper's Table II methodology).
func SweepOffsets(sys *System, base SimConfig, flowIdx int, maxOffset, step Cycles) (*SimSweepResult, error) {
	return sim.SweepOffsets(sys, base, flowIdx, maxOffset, step)
}

// Breakdown decomposes one flow's response-time bound term by term.
type Breakdown = core.Breakdown

// Explain runs the analysis and decomposes the bound of the given flow
// into per-interferer interference terms (R = C + Σ terms).
func Explain(sys *System, sets *InterferenceSets, opt AnalysisOptions, flow int) (*Breakdown, error) {
	return core.NewEngineWithSets(sys, sets).Explain(opt, flow)
}

// AssignRateMonotonic assigns unique priorities by non-decreasing period
// (the paper's policy).
func AssignRateMonotonic(flows []Flow) { priority.RateMonotonic(flows) }

// AssignDeadlineMonotonic assigns unique priorities by non-decreasing
// deadline.
func AssignDeadlineMonotonic(flows []Flow) { priority.DeadlineMonotonic(flows) }

// AssignAudsley searches for a schedulable priority assignment
// lowest-priority-first, using the given analysis as the oracle. See
// internal/priority for the heuristic caveats.
func AssignAudsley(topo *Topology, flows []Flow, opt AnalysisOptions) ([]Flow, bool, error) {
	return priority.Audsley(topo, flows, opt)
}

// ScaleLimit binary-searches the largest uniform packet-length scaling
// factor under which the system stays fully schedulable — the headroom a
// design has before its guarantees break (see internal/core/sensitivity.go).
func ScaleLimit(sys *System, opt AnalysisOptions, lo, hi, precision float64) (float64, error) {
	return core.ScaleLimit(sys, opt, lo, hi, precision)
}

// DidacticExample returns the paper's Section V scenario (Table I /
// Figure 3) at the given per-VC buffer depth — the canonical MPB
// demonstrator used throughout the documentation and tests.
func DidacticExample(bufDepth int) *System { return workload.Didactic(bufDepth) }

// SyntheticWorkload generates a random flow set following the paper's
// Section VI recipe (see internal/workload.SynthConfig for the knobs).
type SyntheticWorkload = workload.SynthConfig

// GenerateSynthetic builds a random flow set on the topology.
func GenerateSynthetic(topo *Topology, cfg SyntheticWorkload) (*System, error) {
	return workload.Synthetic(topo, cfg)
}

// MapAVBenchmark maps the autonomous-vehicle benchmark onto the topology
// with a random task placement (deterministic in seed). It returns
// workload.ErrNoNetworkFlows when every communicating task pair is
// co-mapped.
func MapAVBenchmark(topo *Topology, seed int64) (*System, error) {
	return workload.MapAV(topo, seed)
}

// TraceEvent is one flit transfer parsed from a simulator trace.
type TraceEvent = trace.Event

// GanttOptions configures RenderGantt.
type GanttOptions = trace.GanttOptions

// ParseTrace reads a CSV flit-transfer trace written via
// SimConfig.TraceWriter.
func ParseTrace(r io.Reader) ([]TraceEvent, error) { return trace.Parse(r) }

// RenderGantt renders per-link occupancy over time as ASCII art; see
// internal/trace.
func RenderGantt(sys *System, events []TraceEvent, opt GanttOptions) string {
	return trace.RenderGantt(sys, events, opt)
}

// FlowLegend renders the flow-symbol legend for RenderGantt output.
func FlowLegend(sys *System) string { return trace.FlowLegend(sys) }
